// Fig. 8 — Spam attack by a collusive flash crowd (paper §VI-C).
//
// An experienced core of 30 nodes is pre-converged on honest moderator M1.
// A flash crowd of colluders — 1× and 2× the core size — arrives at t = 0
// promoting spam moderator M0: they answer every VoxPopuli request with a
// fabricated top-K list headed by M0. Colluders churn like honest peers, so
// what matters is the crowd size relative to the *online* core, exactly as
// the paper discusses.
//
// Reported series: the fraction of newly arrived normal nodes (non-core,
// non-colluder, already arrived) whose current top moderator is M0.
//
// Paper anchors: at 2× core size most new nodes are defeated for roughly
// the first 24 h, then recover as they gather B_min experienced votes; at
// 1× only a minority is ever defeated; below 1× (the extra 0.5× series)
// pollution stays near zero. The core itself is never polluted.
#include <cstdio>
#include <vector>

#include "attack_scenario.hpp"
#include "bench_common.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kCoreSize = 30;
constexpr Duration kHorizon = 4 * kDay;  // recovery fully visible

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                std::size_t crowd_size) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  // Trace-like churn: each colluder is online half the time.
  config.adversary.roster.push_back(bench::flash_crowd(crowd_size, 0.5));
  core::ScenarioRunner runner(tr, config, 0xF18 + index);
  const bench::AttackScenario scenario =
      bench::setup_attack_scenario(runner, kCoreSize);

  metrics::TimeSeries pollution;
  bench::sample_new_node_pollution(runner, scenario, kHour, pollution);
  // Also track core pollution (must stay zero) as an invariant check.
  metrics::TimeSeries core_pollution;
  runner.sample_every(6 * kHour, [&](Time t) {
    std::vector<vote::RankedList> rankings;
    for (const PeerId p : scenario.core) {
      if (runner.has_arrived(p, t)) rankings.push_back(runner.ranking_of(p));
    }
    core_pollution.add(
        t, metrics::pollution_fraction(rankings, scenario.m0));
  });
  runner.run_until(std::min<Time>(kHorizon, tr.duration));

  core::ReplicaResult result;
  result.series["pollution"] = std::move(pollution);
  result.series["core_pollution"] = std::move(core_pollution);
  return result;
}

}  // namespace

int main() {
  bench::banner("fig8_spam_attack",
                "Fig. 8 — proportion of newly arrived nodes ranking spam "
                "moderator M0 top (core=30; crowd 1x and 2x)");
  const auto traces = bench::paper_dataset(bench::replica_count());

  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (const std::size_t crowd : {kCoreSize / 2, kCoreSize, 2 * kCoreSize}) {
    const auto results = core::run_replicas(
        traces, [crowd](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, crowd);
        });
    const auto agg = core::aggregate_named(results, "pollution");
    char label[48];
    std::snprintf(label, sizeof label, "crowd_%.1fx (%zu colluders)",
                  static_cast<double>(crowd) / kCoreSize, crowd);
    bench::print_series(label, agg, /*stride=*/3);

    double peak = 0.0;
    Time peak_t = 0, recovered_t = -1;
    for (std::size_t i = 0; i < agg.times.size(); ++i) {
      if (agg.mean[i] > peak) {
        peak = agg.mean[i];
        peak_t = agg.times[i];
      }
    }
    for (std::size_t i = 0; i < agg.times.size(); ++i) {
      if (agg.times[i] > peak_t && agg.mean[i] < 0.1) {
        recovered_t = agg.times[i];
        break;
      }
    }
    std::printf("peak pollution %.2f at %.0fh; below 0.10 again at %s\n",
                peak, to_hours(peak_t),
                recovered_t >= 0
                    ? (std::to_string(static_cast<long long>(
                           to_hours(recovered_t))) + "h").c_str()
                    : "never (within horizon)");

    const auto core_agg = core::aggregate_named(results, "core_pollution");
    double core_max = 0.0;
    for (const double v : core_agg.mean) core_max = std::max(core_max, v);
    std::printf("core pollution max %.3f (must be 0 — experience holds)\n",
                core_max);

    char name[24];
    std::snprintf(name, sizeof name, "crowd_%.1fx",
                  static_cast<double>(crowd) / kCoreSize);
    out.emplace_back(name, agg);
  }
  bench::write_csv("fig8_spam_attack.csv", out);
  return 0;
}
