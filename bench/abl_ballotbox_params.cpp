// Ablation A2 — BallotBox parameters B_min and B_max (paper §V-A/§V-C
// defaults: B_min = 5, B_max = 100).
//
// Fig. 6 scenario, varying one parameter at a time. B_min trades bootstrap
// speed against sample quality (lower B_min = nodes trust tiny samples
// sooner); B_max bounds the sample a node can accumulate (smaller B_max =
// noisier tallies, larger = slower turnover of stale votes).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"

using namespace tribvote;

namespace {

constexpr Duration kHorizon = 3 * kDay;

struct Config {
  const char* label;
  std::size_t b_min;
  std::size_t b_max;
};

constexpr Config kConfigs[] = {
    {"Bmin=2,Bmax=100", 2, 100},  {"Bmin=5,Bmax=100", 5, 100},
    {"Bmin=15,Bmax=100", 15, 100}, {"Bmin=5,Bmax=25", 5, 25},
    {"Bmin=5,Bmax=400", 5, 400},
};

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                const Config& cfg) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  config.vote.b_min = cfg.b_min;
  config.vote.b_max = cfg.b_max;
  core::ScenarioRunner runner(tr, config, 0xA2 + index);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "good");
  runner.publish_moderation(m2, 10 * kMinute, "plain");
  runner.publish_moderation(m3, 10 * kMinute, "spam");
  util::Rng pick(0xB2 + index);
  const auto chosen =
      pick.sample_indices(tr.peers.size(), tr.peers.size() / 5);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto voter = static_cast<PeerId>(chosen[i]);
    if (voter == m1 || voter == m2 || voter == m3) continue;
    runner.script_vote_on_receipt(
        voter, i % 2 == 0 ? m1 : m3,
        i % 2 == 0 ? Opinion::kPositive : Opinion::kNegative);
  }

  const std::vector<ModeratorId> expected{m1, m2, m3};
  metrics::TimeSeries series;
  runner.sample_every(3 * kHour, [&](Time t) {
    std::vector<vote::RankedList> rankings;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (p == m1 || p == m2 || p == m3) continue;
      rankings.push_back(runner.ranking_of(p));
    }
    series.add(t, metrics::correct_ordering_fraction(
                      rankings, std::span<const ModeratorId>(expected)));
  });
  runner.run_until(kHorizon);

  core::ReplicaResult result;
  result.series["correct"] = std::move(series);
  return result;
}

}  // namespace

int main() {
  bench::banner("abl_ballotbox_params",
                "A2 — B_min / B_max sensitivity of sampling accuracy and "
                "bootstrap delay");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());

  std::printf("\n%18s  %8s  %8s  %8s  %8s\n", "config", "@12h", "@24h",
              "@48h", "@72h");
  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (const Config& cfg : kConfigs) {
    const auto results = core::run_replicas(
        traces, [&cfg](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, cfg);
        });
    const auto agg = core::aggregate_named(results, "correct");
    const auto at = [&agg](double h) {
      const auto idx = static_cast<std::size_t>(h / 3.0);
      return idx < agg.mean.size() ? agg.mean[idx] : -1.0;
    };
    std::printf("%18s  %8.3f  %8.3f  %8.3f  %8.3f\n", cfg.label, at(12),
                at(24), at(48), at(72));
    out.emplace_back(cfg.label, agg);
  }
  bench::write_csv("abl_ballotbox_params.csv", out);
  return 0;
}
