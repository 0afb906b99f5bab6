// End-to-end integration tests: miniature versions of the paper's three
// experiments, run on small fast traces, asserting the qualitative results
// (experience forms; vote sampling converges to the correct ordering; a
// flash crowd pollutes bootstrapping nodes through VoxPopuli but not the
// experienced core, and victims recover).
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "metrics/cev.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"

namespace tribvote::core {
namespace {

trace::Trace mini_trace(std::uint64_t seed, std::uint32_t peers = 30,
                        Duration duration = 2 * kDay) {
  trace::GeneratorParams params;
  params.n_peers = peers;
  params.n_swarms = 4;
  params.duration = duration;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  return trace::generate_trace(params, seed);
}

TEST(Integration, ExperienceFormsOverTime) {
  const trace::Trace tr = mini_trace(11);
  ScenarioConfig config;
  config.shards = 2;  // results are shard-count invariant by construction
  ScenarioRunner runner(tr, config, 1);

  std::vector<double> cev_samples;
  util::ThreadPool pool(4);
  runner.sample_every(12 * kHour, [&](Time) {
    cev_samples.push_back(runner.collective_experience(
        config.experience_threshold_mb, &pool));
  });
  runner.run_until(tr.duration);

  ASSERT_GE(cev_samples.size(), 4u);
  EXPECT_EQ(cev_samples.front(), 0.0);
  EXPECT_GT(cev_samples.back(), 0.05);  // a core formed
  // CEV is (weakly) increasing: experience never evaporates.
  for (std::size_t i = 1; i < cev_samples.size(); ++i) {
    EXPECT_GE(cev_samples[i], cev_samples[i - 1] - 1e-9);
  }
}

TEST(Integration, LowerThresholdMeansMoreExperience) {
  const trace::Trace tr = mini_trace(12);
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 2);
  runner.run_until(tr.duration);
  const auto agents = runner.barter_agents();
  const std::span<const bartercast::BarterAgent* const> span(
      agents.data(), tr.peers.size());
  const double cev1 = metrics::collective_experience_value(span, 1.0);
  const double cev5 = metrics::collective_experience_value(span, 5.0);
  const double cev50 = metrics::collective_experience_value(span, 50.0);
  EXPECT_GE(cev1, cev5);
  EXPECT_GE(cev5, cev50);
  EXPECT_GT(cev1, 0.0);
}

TEST(Integration, VoteSamplingConvergesToCorrectOrdering) {
  const trace::Trace tr = mini_trace(13, 40, 3 * kDay);
  ScenarioConfig config;
  config.shards = 4;  // full qualitative scenario on the sharded kernel
  ScenarioRunner runner(tr, config, 3);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "good");
  runner.publish_moderation(m2, 10 * kMinute, "neutral");
  runner.publish_moderation(m3, 10 * kMinute, "bad");
  // 20% vote +M1, 20% vote -M3 (denser than the paper's 10% to converge on
  // this small population).
  util::Rng pick(4);
  const auto voters = pick.sample_indices(tr.peers.size(), 16);
  for (std::size_t i = 0; i < voters.size(); ++i) {
    const auto v = static_cast<PeerId>(voters[i]);
    if (v == m1 || v == m2 || v == m3) continue;
    if (i % 2 == 0) {
      runner.script_vote_on_receipt(v, m1, Opinion::kPositive);
    } else {
      runner.script_vote_on_receipt(v, m3, Opinion::kNegative);
    }
  }
  runner.run_until(tr.duration);

  std::vector<vote::RankedList> rankings;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != m1 && p != m2 && p != m3) {
      rankings.push_back(runner.ranking_of(p));
    }
  }
  const std::vector<ModeratorId> expected{m1, m2, m3};
  EXPECT_GT(metrics::correct_ordering_fraction(rankings, expected), 0.6);
}

TEST(Integration, FlashCrowdPollutesThenRecoveryHolds) {
  const trace::Trace tr = mini_trace(14, 40, 2 * kDay);
  ScenarioConfig config;
  // 50 always-online colluders: overwhelming vs ~20 online honest, the
  // maximal pressure for this test.
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder, .agents = 50});

  ScenarioRunner runner(tr, config, 5);
  const ModeratorId m0 = runner.adversary_layout().spam_moderator();

  // Pre-converged core: the 10 earliest arrivals all voted +M1 and hold
  // each other's votes (past B_min), plus mutual transfer history so they
  // are experienced for each other and for newcomers they upload to.
  const auto core = trace::earliest_arrivals(tr, 10);
  const ModeratorId m1 = core.front();
  runner.publish_moderation(m1, kMinute, "the real thing");
  for (const PeerId a : core) {
    if (a != m1) runner.cast_vote_now(a, m1, Opinion::kPositive);
    for (const PeerId b : core) {
      if (a != b) {
        runner.preseed_transfer(a, b, 25.0);
        runner.preload_ballot(a, b, m1, Opinion::kPositive);
      }
    }
  }

  std::vector<double> new_node_pollution;
  std::vector<double> core_pollution;
  const auto is_core = [&](PeerId p) {
    return std::find(core.begin(), core.end(), p) != core.end();
  };
  runner.sample_every(6 * kHour, [&](Time t) {
    std::vector<vote::RankedList> fresh, core_rankings;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (!runner.has_arrived(p, t)) continue;
      if (is_core(p)) {
        core_rankings.push_back(runner.ranking_of(p));
      } else {
        fresh.push_back(runner.ranking_of(p));
      }
    }
    new_node_pollution.push_back(metrics::pollution_fraction(fresh, m0));
    core_pollution.push_back(metrics::pollution_fraction(core_rankings, m0));
  });
  runner.run_until(tr.duration);

  // The experienced core is never polluted — colluders fail E.
  for (const double p : core_pollution) EXPECT_EQ(p, 0.0);
  // New nodes are polluted at some point (VoxPopuli window)...
  const double peak =
      *std::max_element(new_node_pollution.begin(), new_node_pollution.end());
  EXPECT_GT(peak, 0.3);
  // ...but recover: final pollution well below the peak.
  EXPECT_LT(new_node_pollution.back(), peak * 0.7);
}

TEST(Integration, BootstrapCompletesUnderThirtyPercentLoss) {
  // Robustness acceptance bar: with 30 % message loss (plus the scaled
  // companion faults the A11 sweep uses at that level), at least 95 % of
  // honest arrived nodes still complete VoxPopuli bootstrap — retries,
  // re-offers and one-sided exchanges keep the sampling liveness intact.
  const trace::Trace tr = mini_trace(21, 30, 3 * kDay);
  ScenarioConfig config;
  config.faults.loss = 0.3;
  config.faults.delay_rate = 0.15;
  config.faults.max_delay = 120;
  config.faults.corrupt_rate = 0.06;
  config.faults.crash_rate = 0.01;
  ScenarioRunner runner(tr, config, 7);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "good");
  runner.publish_moderation(m2, 10 * kMinute, "neutral");
  runner.publish_moderation(m3, 10 * kMinute, "bad");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p == m1 || p == m2 || p == m3) continue;
    runner.script_vote_on_receipt(p, p % 2 == 0 ? m1 : m3,
                                  p % 2 == 0 ? Opinion::kPositive
                                             : Opinion::kNegative);
  }
  runner.run_until(tr.duration);

  std::size_t arrived = 0, bootstrapped = 0;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p == m1 || p == m2 || p == m3) continue;
    if (!runner.has_arrived(p, tr.duration)) continue;
    ++arrived;
    if (!runner.node(p).vote().bootstrapping()) ++bootstrapped;
  }
  ASSERT_GT(arrived, 0u);
  EXPECT_GE(static_cast<double>(bootstrapped),
            0.95 * static_cast<double>(arrived))
      << bootstrapped << " of " << arrived << " bootstrapped";
  // The transport was genuinely hostile while it happened.
  EXPECT_GT(runner.fault_stats().total().dropped_requests, 0u);
  EXPECT_GT(runner.fault_stats().total().retries, 0u);
}

TEST(Integration, ChaosTransportNeverCrashesNorPoisons) {
  // Worst-case fuzz: every fault class at an extreme rate, on the sharded
  // kernel, with an attack running. The assertions are survival (the run
  // completes) and damage that is *accounted* —
  // corrupted payloads were rejected by signature checks, never merged.
  const trace::Trace tr = mini_trace(22, 30, kDay);
  ScenarioConfig config;
  config.shards = 4;
  config.faults.loss = 0.5;
  config.faults.delay_rate = 0.4;
  config.faults.max_delay = 300;
  config.faults.crash_rate = 0.1;
  config.faults.corrupt_rate = 0.5;
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder, .agents = 10,
       .start = kHour, .duty = 0.5});
  config.telemetry.mode = telemetry::TelemetryMode::kCounters;
  ScenarioRunner runner(tr, config, 8);
  const auto firsts = trace::earliest_arrivals(tr, 1);
  runner.publish_moderation(firsts[0], kMinute, "survives chaos");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != firsts[0]) {
      runner.script_vote_on_receipt(p, firsts[0], Opinion::kPositive);
    }
  }
  runner.run_until(tr.duration);

  const sim::FaultCounters total = runner.fault_stats().total();
  EXPECT_GT(total.corrupted, 0u);
  EXPECT_GT(total.rejected, 0u);
  EXPECT_GT(total.crashes, 0u);
  EXPECT_GT(total.one_sided, 0u);
  // Progress under fire: the protocols did not deadlock or wedge.
  EXPECT_GT(runner.stats().vote_exchanges, 0u);
  EXPECT_GT(runner.stats().votes_accepted, 0u);
  // The delta gossip path ran under chaos: digests opened exchanges,
  // damaged digests fell back to full retransmits, the vote-history cache
  // served warm messages — and none of it poisoned a box (corruption was
  // fully accounted as rejections above).
  const telemetry::Registry& reg = runner.telemetry()->registry();
  EXPECT_GT(reg.total_by_name("gossip.delta_exchanges"), 0u);
  EXPECT_GT(reg.total_by_name("gossip.full_exchanges"), 0u);
  EXPECT_GT(reg.total_by_name("gossip.digest_fallbacks"), 0u);
  EXPECT_GT(reg.total_by_name("gossip.cache_hits"), 0u);
  EXPECT_GT(reg.total_by_name("gossip.bytes_sent"),
            reg.total_by_name("gossip.signatures"));
}

TEST(Integration, NoAttackMeansNoPollution) {
  const trace::Trace tr = mini_trace(15, 30, kDay);
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 6);
  const auto firsts = trace::earliest_arrivals(tr, 1);
  runner.publish_moderation(firsts[0], kMinute, "fine");
  runner.run_until(tr.duration);
  EXPECT_EQ(runner.adversary_layout().spam_moderator(), kInvalidModerator);
  EXPECT_TRUE(runner.adversary_layout().empty());
  EXPECT_EQ(runner.population_size(), tr.peers.size());
}

}  // namespace
}  // namespace tribvote::core
