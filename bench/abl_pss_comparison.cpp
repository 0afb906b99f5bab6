// Ablation A4 — Oracle PSS vs Newscast gossip PSS.
//
// The paper assumes a PSS that "periodically returns a random peer from the
// entire population of online peers" and relies on Tribler's deployed
// BuddyCast. This bench replays the Fig. 6 scenario under both the exact
// oracle and the Newscast-style gossip implementation, showing the results
// hold under a real decentralized PSS (with its bounded views and stale
// entries under churn).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"

using namespace tribvote;

namespace {

constexpr Duration kHorizon = 3 * kDay;

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                core::PssKind pss) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  config.pss = pss;
  core::ScenarioRunner runner(tr, config, 0xA4 + index);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "good");
  runner.publish_moderation(m2, 10 * kMinute, "plain");
  runner.publish_moderation(m3, 10 * kMinute, "spam");
  util::Rng pick(0xB4 + index);
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
  bench::banner("abl_pss_comparison",
                "A4 — oracle PSS vs Newscast gossip PSS on the Fig. 6 "
                "scenario");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());

  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (const auto& [label, kind] :
       {std::pair{"oracle", core::PssKind::kOracle},
        std::pair{"newscast", core::PssKind::kNewscast}}) {
    const auto results = core::run_replicas(
        traces, [kind](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, kind);
        });
    const auto agg = core::aggregate_named(results, "correct");
    bench::print_series(label, agg, /*stride=*/4);
    out.emplace_back(label, agg);
  }

  const auto& oracle = out[0].second;
  const auto& newscast = out[1].second;
  double max_gap = 0;
  for (std::size_t i = 0;
       i < std::min(oracle.mean.size(), newscast.mean.size()); ++i) {
    max_gap = std::max(max_gap, std::abs(oracle.mean[i] - newscast.mean[i]));
  }
  std::printf("\nmax |oracle - newscast| gap over time: %.3f\n", max_gap);
  bench::write_csv("abl_pss_comparison.csv", out);
  return 0;
}
