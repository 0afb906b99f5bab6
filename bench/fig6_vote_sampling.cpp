// Fig. 6 — Effectiveness of vote sampling over time (paper §VI-B).
//
// Scenario: the first three nodes entering the system are moderators
// M1/M2/M3, each publishing one moderation. 10 % of the population votes
// +M1 and 10 % votes −M3 — but only once the corresponding moderation has
// reached them through ModerationCast. The plotted quantity is the fraction
// of (non-moderator) nodes whose current ranking orders M1 > M2 > M3.
// Parameters: B_min=5, B_max=100, V_max=10, K=3, T=5 MB.
//
// Paper anchors: a sharp rise at ~12 h caused by VoxPopuli bootstrapping
// (the first nodes pass B_min and start answering top-K requests), then
// convergence toward 1. Three typical runs plus the 10-trace mean.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"

using namespace tribvote;

namespace {

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index) {
  core::ScenarioConfig config;  // paper defaults
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  core::ScenarioRunner runner(tr, config, 0xF16 + index);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "well-described release");
  runner.publish_moderation(m2, 10 * kMinute, "plain release");
  runner.publish_moderation(m3, 10 * kMinute, "misleading spam");

  // 10% of the population votes +M1, a disjoint 10% votes -M3, on receipt.
  util::Rng pick(0xB0 + index);
  const auto chosen =
      pick.sample_indices(tr.peers.size(), tr.peers.size() / 5);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto voter = static_cast<PeerId>(chosen[i]);
    if (voter == m1 || voter == m2 || voter == m3) continue;
    if (i % 2 == 0) {
      runner.script_vote_on_receipt(voter, m1, Opinion::kPositive);
    } else {
      runner.script_vote_on_receipt(voter, m3, Opinion::kNegative);
    }
  }

  const std::vector<ModeratorId> expected{m1, m2, m3};
  metrics::TimeSeries series;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::vector<vote::RankedList> rankings;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (p == m1 || p == m2 || p == m3) continue;
      rankings.push_back(runner.ranking_of(p));
    }
    series.add(t, metrics::correct_ordering_fraction(
                      rankings, std::span<const ModeratorId>(expected)));
  });
  runner.run_until(tr.duration);

  core::ReplicaResult result;
  result.series["correct"] = std::move(series);
  return result;
}

}  // namespace

int main() {
  bench::banner("fig6_vote_sampling",
                "Fig. 6 — fraction of nodes with correct ordering "
                "M1 > M2 > M3 vs time");
  const std::size_t replicas = bench::replica_count();
  const auto traces = bench::paper_dataset(replicas);
  const auto results = core::run_replicas(traces, run_replica);

  // Three typical runs + the mean over all replicas (paper's layout).
  const auto mean = core::aggregate_named(results, "correct");
  std::printf("\n%8s", "t_hours");
  const std::size_t typicals = std::min<std::size_t>(3, results.size());
  for (std::size_t r = 0; r < typicals; ++r) std::printf("    run%zu", r + 1);
  std::printf("     mean   stderr\n");
  for (std::size_t i = 0; i < mean.times.size(); i += 3) {
    std::printf("%8.1f", to_hours(mean.times[i]));
    for (std::size_t r = 0; r < typicals; ++r) {
      const auto& s = results[r].series.at("correct");
      std::printf("  %7.3f", i < s.values.size() ? s.values[i] : -1.0);
    }
    std::printf("  %7.3f  %7.3f\n", mean.mean[i], mean.stderr_mean[i]);
  }

  // Paper anchor: the VoxPopuli knee — when the mean first exceeds 0.5.
  for (std::size_t i = 0; i < mean.times.size(); ++i) {
    if (mean.mean[i] >= 0.5) {
      std::printf("\nmean crosses 0.5 at ~%.0fh (paper: sharp rise ~12h)\n",
                  to_hours(mean.times[i]));
      break;
    }
  }

  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  out.emplace_back("correct", mean);
  for (std::size_t r = 0; r < typicals; ++r) {
    metrics::AggregateSeries single =
        core::aggregate_named({results[r]}, "correct");
    out.emplace_back("run" + std::to_string(r + 1), std::move(single));
  }
  bench::write_csv("fig6_vote_sampling.csv", out);
  return 0;
}
