// Ablation A1 — experience threshold T beyond Fig. 5.
//
// For a wide sweep of T: the final CEV after 7 days and the time for the
// CEV to reach 10 % / 20 % / 40 % of ordered pairs. Quantifies the paper's
// trade-off: lower T admits voters sooner (faster bootstrap) but cheapens
// the cost of a fake identity; higher T delays honest newcomers.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"

using namespace tribvote;

namespace {

constexpr std::array<double, 7> kThresholds{0.5, 1, 2, 5, 10, 25, 50};

/// Replica series name of threshold index k ("T0", "T1", ...).
std::string threshold_key(std::size_t k) {
  std::string key = "T";
  key += std::to_string(k);
  return key;
}

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  core::ScenarioRunner runner(tr, config, 0xA1 + index);
  const std::size_t n = runner.trace_peer_count();

  std::array<metrics::TimeSeries, kThresholds.size()> series;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::array<std::size_t, kThresholds.size()> edges{};
    for (PeerId i = 0; i < n; ++i) {
      const auto& agent = runner.node(i).barter();
      for (PeerId j = 0; j < n; ++j) {
        if (i == j) continue;
        const double f = agent.contribution_of(j);
        for (std::size_t k = 0; k < kThresholds.size(); ++k) {
          if (f >= kThresholds[k]) ++edges[k];
        }
      }
    }
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    for (std::size_t k = 0; k < kThresholds.size(); ++k) {
      series[k].add(t, static_cast<double>(edges[k]) / pairs);
    }
  });
  runner.run_until(tr.duration);

  core::ReplicaResult result;
  for (std::size_t k = 0; k < kThresholds.size(); ++k) {
    result.series[threshold_key(k)] = std::move(series[k]);
  }
  return result;
}

/// First time the aggregated mean reaches `level` (-1 if never).
double hours_to_reach(const metrics::AggregateSeries& agg, double level) {
  for (std::size_t i = 0; i < agg.times.size(); ++i) {
    if (agg.mean[i] >= level) return to_hours(agg.times[i]);
  }
  return -1.0;
}

}  // namespace

int main() {
  bench::banner("abl_threshold_sweep",
                "A1 — T sweep: core-formation speed vs Sybil cost (extends "
                "Fig. 5)");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());
  const auto results = core::run_replicas(traces, run_replica);

  std::printf("\n%8s  %10s  %12s  %12s  %12s\n", "T (MB)", "final CEV",
              "h to 10%", "h to 20%", "h to 40%");
  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (std::size_t k = 0; k < kThresholds.size(); ++k) {
    const auto agg =
        core::aggregate_named(results, threshold_key(k));
    std::printf("%8g  %10.3f  %12.1f  %12.1f  %12.1f\n", kThresholds[k],
                agg.mean.empty() ? 0.0 : agg.mean.back(),
                hours_to_reach(agg, 0.10), hours_to_reach(agg, 0.20),
                hours_to_reach(agg, 0.40));
    char name[32];  // fits "cev_T" plus the longest %g rendering
    std::snprintf(name, sizeof name, "cev_T%g", kThresholds[k]);
    out.emplace_back(name, agg);
  }
  std::printf("\n(-1 = level not reached within the 7-day trace)\n");
  bench::write_csv("abl_threshold_sweep.csv", out);
  return 0;
}
