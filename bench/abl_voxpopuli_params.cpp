// Ablation A3 — VoxPopuli parameters V_max and K (paper defaults: V_max =
// 10 cached top-K lists, K = 3).
//
// Fig. 8 scenario at 1× crowd. The cache majority-merges the last V_max
// top-K lists, and majority amplification cuts both ways: while colluders
// hold the majority of VoxPopuli answerers, a larger V_max *amplifies*
// pollution (more nodes see a colluder-majority cache); once honest
// answerers dominate, the same amplification speeds recovery. V_max = 1
// means believing the last peer asked — low peaks, but permanently noisy.
// Smaller K leaves less of the ranking for a lie to rewrite.
#include <cstdio>
#include <vector>

#include "attack_scenario.hpp"
#include "bench_common.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kCoreSize = 30;
constexpr Duration kHorizon = 2 * kDay;

struct Config {
  const char* label;
  std::size_t v_max;
  std::size_t k;
};

constexpr Config kConfigs[] = {
    {"Vmax=1,K=3", 1, 3},  {"Vmax=5,K=3", 5, 3},  {"Vmax=10,K=3", 10, 3},
    {"Vmax=20,K=3", 20, 3}, {"Vmax=10,K=1", 10, 1}, {"Vmax=10,K=5", 10, 5},
};

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                const Config& cfg) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  config.vote.v_max = cfg.v_max;
  config.vote.k = cfg.k;
  config.adversary.roster.push_back(bench::flash_crowd(kCoreSize, 0.5));
  core::ScenarioRunner runner(tr, config, 0xA3 + index);
  const bench::AttackScenario scenario =
      bench::setup_attack_scenario(runner, kCoreSize);

  metrics::TimeSeries pollution;
  bench::sample_new_node_pollution(runner, scenario, 2 * kHour, pollution);
  runner.run_until(kHorizon);

  core::ReplicaResult result;
  result.series["pollution"] = std::move(pollution);
  return result;
}

}  // namespace

int main() {
  bench::banner("abl_voxpopuli_params",
                "A3 — V_max / K sensitivity of VoxPopuli pollution "
                "resistance (1x crowd)");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());

  std::printf("\n%14s  %8s  %8s  %8s  %8s\n", "config", "peak", "@12h",
              "@24h", "@48h");
  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (const Config& cfg : kConfigs) {
    const auto results = core::run_replicas(
        traces, [&cfg](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, cfg);
        });
    const auto agg = core::aggregate_named(results, "pollution");
    double peak = 0;
    for (const double v : agg.mean) peak = std::max(peak, v);
    const auto at = [&agg](double h) {
      const auto idx = static_cast<std::size_t>(h / 2.0);
      return idx < agg.mean.size() ? agg.mean[idx] : -1.0;
    };
    std::printf("%14s  %8.3f  %8.3f  %8.3f  %8.3f\n", cfg.label, peak,
                at(12), at(24), at(48));
    out.emplace_back(cfg.label, agg);
  }
  bench::write_csv("abl_voxpopuli_params.csv", out);
  return 0;
}
