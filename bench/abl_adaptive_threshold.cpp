// Ablation A6 — adaptive threshold T (paper §VII future work) vs fixed T.
//
// The adaptive mechanism targets the *BallotBox tier*: with a permissive
// fixed T = 0 every identity counts as experienced, so a crowd of cheap
// colluders voting +M0 / −M1 poisons ballot boxes directly. §VII proposes
// starting at T = 0 and raising T when the dispersion of sampled opinions
// exceeds D_max (coordinated liars disagree with honest voters), shedding
// the colluders' votes.
//
// Metrics isolate that tier:
//   * colluder_vote_share — mean fraction of ballot-box entries that came
//     from colluders (the quantity E is supposed to suppress);
//   * ballot_pollution — among honest non-core nodes past B_min (i.e.
//     ranking from their own ballot box, not VoxPopuli), the fraction
//     ranking M0 top;
//   * mean adaptive T over time.
//
// Expected: fixed T=0 absorbs colluder votes wholesale; adaptive T climbs
// under dispersion and the colluder share collapses.
#include <cstdio>
#include <vector>

#include "attack_scenario.hpp"
#include "bench_common.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kCoreSize = 20;
constexpr std::size_t kCrowd = 40;
constexpr Duration kHorizon = 2 * kDay;

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                bool adaptive) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  config.experience_threshold_mb = 0.0;  // permissive baseline
  config.adaptive_threshold = adaptive;
  config.adaptive.t_min = 0.0;
  config.adaptive.t_max = 64.0;   // keep T in the range honest peers reach
  config.adaptive.raise_step = 1.5;
  config.adaptive.decay = 0.9;
  // The crowd also demotes the honest top moderator M1 (the first core
  // member) — this is what creates vote dispersion.
  adversary::StrategySpec crowd = bench::flash_crowd(kCrowd, 0.5);
  crowd.victim = trace::earliest_arrivals(tr, 1).front();
  config.adversary.roster.push_back(crowd);

  core::ScenarioRunner runner(tr, config, 0xA6 + index);
  const bench::AttackScenario scenario =
      bench::setup_attack_scenario(runner, kCoreSize);

  metrics::TimeSeries ballot_pollution, colluder_share, threshold;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::vector<vote::RankedList> settled;  // past B_min: box-based ranking
    double share_sum = 0;
    std::size_t share_count = 0;
    double t_sum = 0;
    std::size_t t_count = 0;
    for (PeerId p = 0; p < runner.trace_peer_count(); ++p) {
      if (!runner.has_arrived(p, t)) continue;
      const auto& node = runner.node(p);
      t_sum += node.threshold_mb();
      ++t_count;
      if (scenario.is_core(p)) continue;
      // Colluder share of this node's ballot-box tally on M0/M1: count
      // entries attributable to colluders via the M0 votes (only colluders
      // ever vote on M0).
      const auto tally = node.vote().ballot_box().tally();
      const std::size_t total_entries = node.vote().ballot_box().size();
      if (total_entries > 0) {
        const auto it = tally.find(scenario.m0);
        const std::size_t colluder_entries =
            it == tally.end() ? 0 : it->second.total();
        share_sum += static_cast<double>(colluder_entries) /
                     static_cast<double>(total_entries);
        ++share_count;
      }
      if (!node.vote().bootstrapping()) {
        settled.push_back(node.vote().current_ranking());
      }
    }
    ballot_pollution.add(
        t, metrics::pollution_fraction(settled, scenario.m0));
    colluder_share.add(
        t, share_count ? share_sum / static_cast<double>(share_count) : 0.0);
    threshold.add(t,
                  t_count ? t_sum / static_cast<double>(t_count) : 0.0);
  });
  runner.run_until(kHorizon);

  core::ReplicaResult result;
  result.series["ballot_pollution"] = std::move(ballot_pollution);
  result.series["colluder_share"] = std::move(colluder_share);
  result.series["threshold"] = std::move(threshold);
  return result;
}

}  // namespace

int main() {
  bench::banner("abl_adaptive_threshold",
                "A6 — dispersion-driven adaptive T vs permissive fixed T=0 "
                "under a vote-promotion attack (BallotBox tier)");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());

  std::vector<std::pair<std::string, metrics::AggregateSeries>> out;
  for (const bool adaptive : {false, true}) {
    const auto results = core::run_replicas(
        traces, [adaptive](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, adaptive);
        });
    const auto pollution =
        core::aggregate_named(results, "ballot_pollution");
    const auto share = core::aggregate_named(results, "colluder_share");
    const auto threshold = core::aggregate_named(results, "threshold");
    const char* label = adaptive ? "adaptive_T" : "fixed_T0";
    std::printf("\n-- %s --\n%8s  %18s  %16s  %12s\n", label, "t_hours",
                "ballot pollution", "colluder share", "mean T (MB)");
    for (std::size_t i = 0; i < pollution.times.size(); i += 2) {
      std::printf("%8.1f  %18.3f  %16.3f  %12.2f\n",
                  to_hours(pollution.times[i]), pollution.mean[i],
                  share.mean[i], threshold.mean[i]);
    }
    out.emplace_back(std::string(label) + "_ballot_pollution", pollution);
    out.emplace_back(std::string(label) + "_colluder_share", share);
    out.emplace_back(std::string(label) + "_T", threshold);
  }
  bench::write_csv("abl_adaptive_threshold.csv", out);
  return 0;
}
