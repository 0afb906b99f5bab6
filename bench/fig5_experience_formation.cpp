// Fig. 5 — Experience formation: Collective Experience Value over time for
// several experience thresholds T (paper §VI-A).
//
// A typical trace is replayed through the full stack; every hour the
// all-pairs BarterCast contribution matrix is sampled and the CEV computed
// for each T. The paper's reported anchors: with T = 5 MB roughly 20 % of
// ordered node pairs are experienced within ~12 hours; larger T shifts the
// curve right/down; some pairs never form experience (free-riders and
// rarely-present peers).
#include <array>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "metrics/cev.hpp"

using namespace tribvote;

namespace {

constexpr std::array<double, 5> kThresholdsMb{1.0, 5.0, 10.0, 25.0, 50.0};

/// One replica: sample the contribution matrix hourly; return one CEV
/// series per threshold (thresholding is free once the matrix is known).
core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  core::ScenarioRunner runner(tr, config, 0x515 + index);
  const std::size_t n = runner.trace_peer_count();

  std::array<metrics::TimeSeries, kThresholdsMb.size()> series;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::array<std::size_t, kThresholdsMb.size()> edges{};
    for (PeerId i = 0; i < n; ++i) {
      // One batched column per sink serves every threshold (and is cached
      // against the graph version for the next sampling epoch).
      const auto& column = runner.node(i).barter().contribution_column(n);
      for (PeerId j = 0; j < n; ++j) {
        if (i == j) continue;
        const double f = column[j];
        for (std::size_t k = 0; k < kThresholdsMb.size(); ++k) {
          if (f >= kThresholdsMb[k]) ++edges[k];
        }
      }
    }
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    for (std::size_t k = 0; k < kThresholdsMb.size(); ++k) {
      series[k].add(t, static_cast<double>(edges[k]) / pairs);
    }
  });
  runner.run_until(tr.duration);

  core::ReplicaResult result;
  for (std::size_t k = 0; k < kThresholdsMb.size(); ++k) {
    char name[32];
    std::snprintf(name, sizeof name, "cev_T%g", kThresholdsMb[k]);
    result.series[name] = std::move(series[k]);
  }
  return result;
}

}  // namespace

int main() {
  bench::banner("fig5_experience_formation",
                "Fig. 5 — CEV vs time for threshold values T (MB)");
  // The paper plots a typical trace; we additionally average over the
  // dataset so the CSV carries error bars.
  const auto traces = bench::paper_dataset(bench::replica_count());
  const auto results = core::run_replicas(traces, run_replica);

  std::vector<std::pair<std::string, metrics::AggregateSeries>> all;
  std::printf("\ntypical trace (replica 0), CEV at selected times:\n");
  std::printf("%10s", "T (MB)");
  for (const double h : {6.0, 12.0, 24.0, 48.0, 96.0, 168.0}) {
    std::printf("  %7.0fh", h);
  }
  std::printf("\n");
  for (const double t_mb : kThresholdsMb) {
    char name[32];
    std::snprintf(name, sizeof name, "cev_T%g", t_mb);
    const auto& typical = results.front().series.at(name);
    std::printf("%10g", t_mb);
    for (const double h : {6.0, 12.0, 24.0, 48.0, 96.0, 168.0}) {
      const auto idx = static_cast<std::size_t>(h / 2);  // 2 h grid
      std::printf("  %8.3f",
                  idx < typical.values.size() ? typical.values[idx] : -1.0);
    }
    std::printf("\n");
    all.emplace_back(name, core::aggregate_named(results, name));
  }

  // Paper anchor: T = 5 MB reaches ~20% of ordered pairs within ~12h.
  const auto& t5 = results.front().series.at("cev_T5");
  std::size_t hit = t5.values.size();
  for (std::size_t i = 0; i < t5.values.size(); ++i) {
    if (t5.values[i] >= 0.20) {
      hit = i;
      break;
    }
  }
  if (hit < t5.values.size()) {
    std::printf("\nT=5MB reaches CEV 0.20 at ~%.0fh (paper: ~12h)\n",
                to_hours(t5.times[hit]));
  } else {
    std::printf("\nT=5MB never reaches CEV 0.20 in this trace\n");
  }

  for (const auto& [name, agg] : all) {
    bench::print_series(name.c_str(), agg, /*stride=*/6);
  }
  bench::write_csv("fig5_experience_formation.csv", all);
  return 0;
}
