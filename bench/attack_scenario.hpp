// Shared setup for the Fig. 8 spam-attack scenario and its ablations.
//
// Builds the paper's §VI-C configuration on a given trace:
//   * a fixed experienced core of the earliest arrivals, pre-converged on
//     the honest top moderator M1 (pre-filled ballot boxes and pairwise
//     transfer history, core members voted +M1);
//   * a flash crowd of colluders promoting spam moderator M0 (always the
//     first colluder id) — a `colluder` roster entry (flash_crowd below)
//     arriving at t = 0 and churning like honest peers;
//   * newly arrived normal nodes — everyone else — whose pollution
//     (fraction ranking M0 top) is the reported metric.
#pragma once

#include <algorithm>
#include <vector>

#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "metrics/timeseries.hpp"
#include "trace/analyzer.hpp"

namespace tribvote::bench {

struct AttackScenario {
  std::vector<PeerId> core;
  ModeratorId m1 = kInvalidModerator;  ///< honest top moderator
  ModeratorId m0 = kInvalidModerator;  ///< spam moderator

  [[nodiscard]] bool is_core(PeerId p) const {
    return std::find(core.begin(), core.end(), p) != core.end();
  }
};

/// The Fig. 8 flash crowd as an adversary roster entry: `agents` colluder
/// identities arriving at t = 0, each online a `duty` fraction of the time
/// in hour-long presence windows.
inline adversary::StrategySpec flash_crowd(std::size_t agents, double duty) {
  return {.kind = adversary::StrategyKind::kColluder,
          .agents = agents,
          .duty = duty};
}

/// Apply the pre-converged-core setup to a runner whose config already
/// carries a flash_crowd roster entry. Call before run_until.
inline AttackScenario setup_attack_scenario(core::ScenarioRunner& runner,
                                            std::size_t core_size,
                                            double preseed_mb = 25.0) {
  AttackScenario scenario;
  scenario.core = trace::earliest_arrivals(runner.trace(), core_size);
  scenario.m1 = scenario.core.front();
  scenario.m0 = runner.adversary_layout().spam_moderator();

  runner.publish_moderation(scenario.m1, kMinute, "genuine popular release");
  for (const PeerId a : scenario.core) {
    if (a != scenario.m1) {
      runner.cast_vote_now(a, scenario.m1, Opinion::kPositive);
    }
    for (const PeerId b : scenario.core) {
      if (a == b) continue;
      // Mutual history: the core is experienced for one another, and its
      // ballot boxes already hold the converged +M1 sample.
      runner.preseed_transfer(a, b, preseed_mb);
      runner.preload_ballot(a, b, scenario.m1, Opinion::kPositive);
    }
  }
  return scenario;
}

/// Attach a sampler recording the pollution fraction among arrived,
/// non-core, non-colluder nodes every `period`.
inline void sample_new_node_pollution(core::ScenarioRunner& runner,
                                      const AttackScenario& scenario,
                                      Duration period,
                                      metrics::TimeSeries& out) {
  runner.sample_every(period, [&runner, &scenario, &out](Time t) {
    std::vector<vote::RankedList> fresh;
    for (PeerId p = 0; p < runner.trace_peer_count(); ++p) {
      if (scenario.is_core(p) || !runner.has_arrived(p, t)) continue;
      fresh.push_back(runner.ranking_of(p));
    }
    out.add(t, metrics::pollution_fraction(fresh, scenario.m0));
  });
}

}  // namespace tribvote::bench
