// Ablation A5 — fake-experience (front-peer) collusion: max-flow vs naive
// contribution (paper §V-B / §VII; the "collusion proof experience
// function" claim).
//
// A clique of colluders gossips fabricated gigantic intra-clique transfers.
// For each honest node we count colluders it would deem experienced under
// (a) the BarterCast hop-bounded max-flow metric the system uses, and
// (b) a naive sum-of-claimed-upload metric. Max-flow throttles the fake
// edges at the genuine capacity between the clique and each node's
// neighborhood; the naive metric believes the claims wholesale.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kCrowd = 20;
constexpr Duration kHorizon = 2 * kDay;
constexpr double kThresholdMb = 5.0;

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  // Moles stay online to gossip lies; their claims are absurdly large.
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder,
       .agents = kCrowd,
       .fake_experience = true,
       .fake_mb = 10000.0});
  core::ScenarioRunner runner(tr, config, 0xA5 + index);

  const std::size_t n_honest = runner.trace_peer_count();
  const std::vector<PeerId> colluders = runner.adversary_layout().agents_of(0);
  metrics::TimeSeries maxflow_fooled, naive_fooled, honest_edges;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::size_t by_maxflow = 0, by_naive = 0, honest = 0;
    std::size_t arrived = 0;
    for (PeerId i = 0; i < n_honest; ++i) {
      if (!runner.has_arrived(i, t)) continue;
      ++arrived;
      const auto& agent = runner.node(i).barter();
      for (const PeerId c : colluders) {
        if (agent.contribution_of(c) >= kThresholdMb) ++by_maxflow;
        if (agent.naive_contribution_of(c) >= kThresholdMb) ++by_naive;
      }
      for (PeerId j = 0; j < n_honest; ++j) {
        if (i != j && agent.contribution_of(j) >= kThresholdMb) ++honest;
      }
    }
    const double pairs =
        std::max<double>(1.0, static_cast<double>(arrived) * kCrowd);
    const double hpairs = std::max<double>(
        1.0, static_cast<double>(arrived) * (static_cast<double>(n_honest) - 1));
    maxflow_fooled.add(t, static_cast<double>(by_maxflow) / pairs);
    naive_fooled.add(t, static_cast<double>(by_naive) / pairs);
    honest_edges.add(t, static_cast<double>(honest) / hpairs);
  });
  runner.run_until(kHorizon);

  core::ReplicaResult result;
  result.series["maxflow_fooled"] = std::move(maxflow_fooled);
  result.series["naive_fooled"] = std::move(naive_fooled);
  result.series["honest_experience"] = std::move(honest_edges);
  return result;
}

}  // namespace

int main() {
  bench::banner(
      "abl_fake_experience",
      "A5 — front-peer collusion: fraction of (honest node, colluder) "
      "pairs where the colluder fakes experience");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());
  const auto results = core::run_replicas(traces, run_replica);

  const auto maxflow = core::aggregate_named(results, "maxflow_fooled");
  const auto naive = core::aggregate_named(results, "naive_fooled");
  const auto honest = core::aggregate_named(results, "honest_experience");

  std::printf("\n%8s  %14s  %14s  %16s\n", "t_hours", "maxflow fooled",
              "naive fooled", "honest baseline");
  for (std::size_t i = 0; i < maxflow.times.size(); i += 2) {
    std::printf("%8.1f  %14.4f  %14.4f  %16.4f\n",
                to_hours(maxflow.times[i]), maxflow.mean[i], naive.mean[i],
                honest.mean[i]);
  }
  std::printf(
      "\nfinal: naive metric fooled on %.1f%% of pairs, max-flow on %.2f%% "
      "(paper: collusion is 'difficult and costly' under max-flow)\n",
      100 * naive.mean.back(), 100 * maxflow.mean.back());

  bench::write_csv("abl_fake_experience.csv",
                   {{"maxflow_fooled", maxflow},
                    {"naive_fooled", naive},
                    {"honest_experience", honest}});
  return 0;
}
