// Ablation A7 — vote-list selection policy (paper §V-A: "Nodes send a
// maximum of 50 votes, selecting them based on a recency and random policy.
// Experiments demonstrated that combining these policies produced
// acceptable performance [6].").
//
// Vote-layer-only simulation (no BitTorrent needed): N voters each hold a
// large ballot paper over M moderators with a planted ground-truth score
// profile, votes cast at staggered times. Peers exchange capped vote-list
// messages under each policy; we measure how well each node's ballot-box
// ranking correlates (Kendall tau) with the planted ground truth, and what
// fraction of moderators its sample covers.
//
// Expected outcome: pure-recent starves old moderators (poor coverage);
// pure-random is slow to propagate fresh opinion; the paper's hybrid does
// well on both — which is why it was chosen.
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "crypto/schnorr.hpp"
#include "util/stats.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kVoters = 60;
constexpr std::size_t kModerators = 150;
constexpr int kRounds = 400;

struct Population {
  std::vector<crypto::KeyPair> keys;
  std::vector<std::unique_ptr<vote::VoteAgent>> agents;
};

Population build(vote::SelectionPolicy policy, std::uint64_t seed) {
  Population pop;
  util::Rng root(seed);
  vote::VoteConfig config;
  config.selection = policy;
  config.b_min = 1;
  config.b_max = 2000;  // large box: isolate the selection policy
  config.gossip_cache = bench::gossip_cache();
  pop.keys.reserve(kVoters);
  for (PeerId id = 0; id < kVoters; ++id) {
    util::Rng krng = root.derive(1000 + id);
    pop.keys.push_back(crypto::generate_keypair(krng));
  }
  for (PeerId id = 0; id < kVoters; ++id) {
    pop.agents.push_back(std::make_unique<vote::VoteAgent>(
        id, pop.keys[id], config, [](PeerId) { return true; },
        root.derive(2000 + id)));
  }
  // Planted opinions: moderator m is "good" iff m < kModerators/2; each
  // voter votes on every moderator, at time proportional to m (so
  // low-numbered moderators hold the OLD votes, high-numbered the recent).
  for (PeerId id = 0; id < kVoters; ++id) {
    for (ModeratorId m = 0; m < kModerators; ++m) {
      pop.agents[id]->cast_vote(m,
                                m < kModerators / 2 ? Opinion::kPositive
                                                    : Opinion::kNegative,
                                static_cast<Time>(m));
    }
  }
  return pop;
}

struct Outcome {
  double tau = 0;       // rank correlation with ground truth
  double coverage = 0;  // fraction of moderators present in the tally
};

Outcome evaluate(const Population& pop) {
  // Ground truth score: +1 for good moderators, -1 for bad.
  std::vector<double> truth(kModerators);
  for (ModeratorId m = 0; m < kModerators; ++m) {
    truth[m] = m < kModerators / 2 ? 1.0 : -1.0;
  }
  util::RunningStats tau_stats, cov_stats;
  for (const auto& agent : pop.agents) {
    const auto tally = agent->ballot_box().tally();
    std::vector<double> sampled(kModerators, 0.0);
    for (const auto& [m, t] : tally) {
      sampled[m] = vote::score(t, vote::RankMethod::kSum);
    }
    tau_stats.add(util::kendall_tau(sampled, truth));
    cov_stats.add(static_cast<double>(tally.size()) / kModerators);
  }
  return Outcome{tau_stats.mean(), cov_stats.mean()};
}

Outcome run(vote::SelectionPolicy policy, std::uint64_t seed) {
  Population pop = build(policy, seed);
  util::Rng pair_rng(seed ^ 0x5e1ec7);
  for (int round = 0; round < kRounds; ++round) {
    const auto i = static_cast<PeerId>(pair_rng.next_below(kVoters));
    auto j = static_cast<PeerId>(pair_rng.next_below(kVoters));
    while (j == i) j = static_cast<PeerId>(pair_rng.next_below(kVoters));
    vote::vote_encounter(*pop.agents[i], *pop.agents[j],
                         static_cast<Time>(kModerators) + round);
  }
  return evaluate(pop);
}

}  // namespace

int main() {
  bench::banner("abl_vote_selection",
                "A7 — vote-list selection policy: recency+random (paper) vs "
                "pure-recent vs pure-random");
  const std::size_t replicas = bench::ablation_replica_count();

  std::printf("\n%16s  %12s  %12s\n", "policy", "kendall tau", "coverage");
  util::CsvWriter csv("abl_vote_selection.csv");
  csv.write_row({"policy", "kendall_tau", "tau_stderr", "coverage",
                 "coverage_stderr"});
  for (const auto& [label, policy] :
       {std::pair{"recency+random", vote::SelectionPolicy::kRecencyRandom},
        std::pair{"recent-only", vote::SelectionPolicy::kRecentOnly},
        std::pair{"random-only", vote::SelectionPolicy::kRandomOnly}}) {
    util::RunningStats tau, coverage;
    for (std::size_t r = 0; r < replicas; ++r) {
      const Outcome outcome = run(policy, bench::env_seed() + r);
      tau.add(outcome.tau);
      coverage.add(outcome.coverage);
    }
    std::printf("%16s  %12.4f  %12.4f\n", label, tau.mean(),
                coverage.mean());
    csv.field(label)
        .field(tau.mean())
        .field(tau.stderr_mean())
        .field(coverage.mean())
        .field(coverage.stderr_mean());
    csv.end_row();
  }
  std::printf("\ncsv written: abl_vote_selection.csv\n");
  return 0;
}
