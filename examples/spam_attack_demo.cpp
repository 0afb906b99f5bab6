// Spam-attack demo: a compact version of the paper's §VI-C experiment.
//
// An experienced core is converged on honest moderator M1; a flash crowd of
// Sybil colluders arrives promoting spam moderator M0 through fabricated
// VoxPopuli answers. Watch the three node classes live:
//   * the core is never polluted (the experience function rejects colluder
//     votes, and core nodes are past B_min so they ignore VoxPopuli);
//   * newly arrived normal nodes get polluted during their bootstrap
//     window, then recover once they hold B_min experienced votes.
//
// Build & run:  ./build/examples/spam_attack_demo
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"

using namespace tribvote;

int main() {
  trace::GeneratorParams params;
  params.n_peers = 80;
  params.duration = 3 * kDay;
  const trace::Trace tr = trace::generate_trace(params, 2024);

  // The flash crowd: 40 colluders (2x the 20-node core) arriving at t = 0.
  // They churn like everyone else, online half the time.
  core::ScenarioConfig config;
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder, .agents = 40, .duty = 0.5});
  core::ScenarioRunner runner(tr, config, 99);

  // Pre-converged core: earliest arrivals with mutual history and +M1.
  const auto core = trace::earliest_arrivals(tr, 20);
  const ModeratorId m1 = core.front();
  const ModeratorId m0 = runner.adversary_layout().spam_moderator();
  runner.publish_moderation(m1, kMinute, "genuine popular content");
  for (const PeerId a : core) {
    if (a != m1) runner.cast_vote_now(a, m1, Opinion::kPositive);
    for (const PeerId b : core) {
      if (a == b) continue;
      runner.preseed_transfer(a, b, 25.0);
      runner.preload_ballot(a, b, m1, Opinion::kPositive);
    }
  }

  std::printf(
      "core=20 nodes converged on M1 (peer %u); crowd=40 colluders "
      "promoting M0 (peer %u)\n\n",
      m1, m0);
  std::printf("%7s  %12s  %12s  %16s\n", "t(h)", "core->M0", "new->M0",
              "new past B_min");
  runner.sample_every(4 * kHour, [&](Time t) {
    std::vector<vote::RankedList> core_r, fresh_r;
    std::size_t past_bmin = 0, fresh_total = 0;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (!runner.has_arrived(p, t)) continue;
      const bool in_core =
          std::find(core.begin(), core.end(), p) != core.end();
      if (in_core) {
        core_r.push_back(runner.ranking_of(p));
      } else {
        fresh_r.push_back(runner.ranking_of(p));
        ++fresh_total;
        if (!runner.node(p).vote().bootstrapping()) ++past_bmin;
      }
    }
    std::printf("%7.0f  %12.2f  %12.2f  %13zu/%zu\n", to_hours(t),
                metrics::pollution_fraction(core_r, m0),
                metrics::pollution_fraction(fresh_r, m0), past_bmin,
                fresh_total);
  });
  runner.run_until(tr.duration);

  std::printf(
      "\nthe spam crowd wins only against bootstrapping nodes, and only "
      "until they gather B_min=%zu experienced votes.\n",
      config.vote.b_min);
  return 0;
}
