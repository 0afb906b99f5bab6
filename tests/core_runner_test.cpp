#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "metrics/degradation.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"

namespace tribvote::core {
namespace {

/// Small, fast trace for runner tests: 20 peers, 1 day, 3 swarms.
trace::Trace small_trace(std::uint64_t seed = 5) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  return trace::generate_trace(params, seed);
}

TEST(Node, RolesAndWiring) {
  ScenarioConfig config;
  Node honest(0, NodeRole::kHonest, config, util::Rng(1));
  EXPECT_EQ(honest.role(), NodeRole::kHonest);
  EXPECT_DOUBLE_EQ(honest.threshold_mb(), config.experience_threshold_mb);
  // Nobody has contributed: nobody is experienced.
  EXPECT_FALSE(honest.experienced(1));
}

TEST(Node, UserVoteGatesModeration) {
  ScenarioConfig config;
  Node alice(0, NodeRole::kHonest, config, util::Rng(1));
  Node mallory(5, NodeRole::kHonest, config, util::Rng(2));
  mallory.mod().publish(0xbad, "spam", 1);
  moderation::exchange(mallory.mod(), alice.mod(), 2);
  ASSERT_EQ(alice.mod().db().count_from(5), 1u);
  // Alice disapproves: items purged and blocked.
  alice.user_vote(5, Opinion::kNegative, 3);
  EXPECT_EQ(alice.mod().db().count_from(5), 0u);
  moderation::exchange(mallory.mod(), alice.mod(), 4);
  EXPECT_EQ(alice.mod().db().count_from(5), 0u);
  // And her vote list records the disapproval.
  EXPECT_EQ(alice.vote().vote_list().opinion_of(5), Opinion::kNegative);
}

TEST(Node, AdaptiveThresholdReactsToDispersion) {
  ScenarioConfig config;
  config.adaptive_threshold = true;
  config.adaptive.t_min = 0.0;
  Node alice(0, NodeRole::kHonest, config, util::Rng(1));
  EXPECT_DOUBLE_EQ(alice.threshold_mb(), 0.0);
  // Calm input: threshold stays at the floor.
  alice.update_adaptive_threshold();
  EXPECT_DOUBLE_EQ(alice.threshold_mb(), 0.0);
  // Conflicting *incoming* votes on one moderator (2 vs 1) raise it —
  // the signal is observed dispersion, counted even for rejected votes.
  Node bob(1, NodeRole::kHonest, config, util::Rng(2));
  Node carol(2, NodeRole::kHonest, config, util::Rng(3));
  Node dave(3, NodeRole::kHonest, config, util::Rng(4));
  bob.vote().cast_vote(7, Opinion::kPositive, 1);
  carol.vote().cast_vote(7, Opinion::kPositive, 1);
  dave.vote().cast_vote(7, Opinion::kNegative, 1);
  for (Node* peer : {&bob, &carol, &dave}) {
    (void)alice.vote().receive_votes(peer->vote().outgoing_votes(2), 2);
  }
  alice.update_adaptive_threshold();
  EXPECT_GT(alice.threshold_mb(), 0.0);
}

TEST(Runner, DeterministicAcrossRuns) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner r1(tr, config, 42);
  ScenarioRunner r2(tr, config, 42);
  r1.run_until(tr.duration);
  r2.run_until(tr.duration);
  EXPECT_EQ(r1.stats().downloads_completed, r2.stats().downloads_completed);
  EXPECT_EQ(r1.stats().vote_exchanges, r2.stats().vote_exchanges);
  EXPECT_EQ(r1.stats().votes_accepted, r2.stats().votes_accepted);
  EXPECT_EQ(r1.ledger().total_uploaded_mb(0),
            r2.ledger().total_uploaded_mb(0));
}

TEST(Runner, DifferentSeedsDiverge) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner r1(tr, config, 1);
  ScenarioRunner r2(tr, config, 2);
  r1.run_until(tr.duration);
  r2.run_until(tr.duration);
  double up1 = 0, up2 = 0;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    up1 += r1.ledger().total_uploaded_mb(p);
    up2 += r2.ledger().total_uploaded_mb(p);
  }
  EXPECT_NE(up1, up2);
}

TEST(Runner, SessionsDriveOnlineState) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  runner.run_until(12 * kHour);
  std::size_t online_per_runner = 0, online_per_trace = 0;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (runner.is_online(p)) ++online_per_runner;
  }
  for (const auto& s : tr.sessions) {
    if (s.start <= 12 * kHour && 12 * kHour < s.end) ++online_per_trace;
  }
  EXPECT_EQ(online_per_runner, online_per_trace);
}

TEST(Runner, DownloadsActuallyComplete) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  runner.run_until(tr.duration);
  EXPECT_GT(runner.stats().downloads_completed, 0u);
  // Transfers landed in the ledger.
  double total = 0;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    total += runner.ledger().total_uploaded_mb(p);
  }
  EXPECT_GT(total, 100.0);
}

TEST(Runner, ScriptedModerationAndVotes) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  const auto firsts = trace::earliest_arrivals(tr, 1);
  const ModeratorId m1 = firsts[0];
  runner.publish_moderation(m1, kMinute, "metadata");
  // Every other founder votes positive on receipt.
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != m1) runner.script_vote_on_receipt(p, m1, Opinion::kPositive);
  }
  runner.run_until(tr.duration);
  std::size_t voted = 0;
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != m1 &&
        runner.node(p).vote().vote_list().opinion_of(m1) ==
            Opinion::kPositive) {
      ++voted;
    }
  }
  EXPECT_GT(voted, tr.peers.size() / 2);
}

TEST(Runner, AttackInjectsColluders) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  // Duty 1 (the default) keeps colluders online for the assertions.
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder, .agents = 5,
       .start = kHour});
  ScenarioRunner runner(tr, config, 7);
  EXPECT_EQ(runner.population_size(), tr.peers.size() + 5);
  const std::vector<PeerId> colluders =
      runner.adversary_layout().agents_of(0);
  EXPECT_EQ(colluders.size(), 5u);
  const ModeratorId m0 = runner.adversary_layout().spam_moderator();
  EXPECT_EQ(m0, tr.peers.size());
  runner.run_until(30 * kMinute);
  EXPECT_FALSE(runner.is_online(m0));
  runner.run_until(2 * kHour);
  for (const PeerId c : colluders) {
    EXPECT_TRUE(runner.is_online(c));
    EXPECT_EQ(runner.node(c).role(), NodeRole::kColluder);
  }
  EXPECT_TRUE(runner.has_arrived(m0, 2 * kHour));
  EXPECT_FALSE(runner.has_arrived(m0, kMinute));
}

TEST(Runner, PreseedTransferCreatesExperience) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  runner.preseed_transfer(3, 4, 50.0);
  // Once node 4 syncs its direct statistics (normally on its next barter
  // round), it considers 3 experienced.
  runner.node(4).barter().sync_direct(runner.ledger(), 0);
  EXPECT_GE(runner.node(4).barter().contribution_of(3), 50.0 - 1e-6);
  EXPECT_TRUE(runner.node(4).experienced(3));
}

TEST(Runner, PreloadBallotSkipsBootstrap) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  for (PeerId voter = 1; voter <= config.vote.b_min; ++voter) {
    runner.preload_ballot(0, voter, /*moderator=*/9, Opinion::kPositive);
  }
  EXPECT_FALSE(runner.node(0).vote().bootstrapping());
  EXPECT_EQ(runner.ranking_of(0).front(), 9u);
}

TEST(Runner, SamplerFiresOnGrid) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 7);
  std::vector<Time> fired;
  runner.sample_every(6 * kHour, [&](Time t) { fired.push_back(t); });
  runner.run_until(tr.duration);
  ASSERT_GE(fired.size(), 4u);
  EXPECT_EQ(fired[0], 0);
  EXPECT_EQ(fired[1], 6 * kHour);
  EXPECT_EQ(fired[2], 12 * kHour);
}

TEST(Runner, NewscastPssVariantRuns) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  config.pss = PssKind::kNewscast;
  ScenarioRunner runner(tr, config, 7);
  runner.run_until(6 * kHour);
  EXPECT_GT(runner.stats().vote_exchanges, 0u);
}

/// Run a fully-scripted scenario at the given shard count and return the
/// sampled metrics as a CSV string — counters, a bit-exact float metric
/// (CEV printed with %.17g round-trips doubles exactly) and a ranking, so
/// any divergence in protocol state shows up as a byte difference.
std::string metrics_csv(const trace::Trace& tr, ScenarioConfig config,
                        std::size_t shards) {
  config.shards = shards;
  ScenarioRunner runner(tr, config, /*seed=*/42);
  const auto firsts = trace::earliest_arrivals(tr, 2);
  runner.publish_moderation(firsts[0], kMinute, "good metadata");
  runner.publish_moderation(firsts[1], 2 * kMinute, "spam metadata");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p == firsts[0] || p == firsts[1]) continue;
    runner.script_vote_on_receipt(
        p, p % 2 == 0 ? firsts[0] : firsts[1],
        p % 2 == 0 ? Opinion::kPositive : Opinion::kNegative);
  }
  std::string csv = "t,online,accepted,rejected,vp,cev,top\n";
  runner.sample_every(2 * kHour, [&](Time t) {
    const double cev =
        runner.collective_experience(config.experience_threshold_mb);
    const vote::RankedList rank = runner.ranking_of(3);
    char line[160];
    std::snprintf(
        line, sizeof line, "%lld,%zu,%llu,%llu,%llu,%.17g,%u\n",
        static_cast<long long>(t), runner.online_count(),
        static_cast<unsigned long long>(runner.stats().votes_accepted),
        static_cast<unsigned long long>(
            runner.stats().votes_rejected_inexperienced),
        static_cast<unsigned long long>(runner.stats().vp_requests_answered),
        cev, rank.empty() ? kInvalidModerator : rank.front());
    csv += line;
  });
  runner.run_until(tr.duration);
  char tail[160];
  std::snprintf(tail, sizeof tail, "final,%llu,%llu,%llu,%.17g\n",
                static_cast<unsigned long long>(
                    runner.stats().downloads_completed),
                static_cast<unsigned long long>(runner.stats().vote_exchanges),
                static_cast<unsigned long long>(
                    runner.stats().moderation_exchanges),
                runner.ledger().total_uploaded_mb(0));
  csv += tail;
  // Degradation counters close the CSV: in a fault-free run they are all
  // zero, in a faulted run any shard-count divergence shows up here even
  // when the protocol metrics happen to agree.
  csv += "faults";
  for (const auto& [name, value] :
       metrics::degradation_columns(runner.fault_stats())) {
    csv += ',' + std::to_string(value);
  }
  csv += '\n';
  return csv;
}

TEST(Runner, ShardCountInvariance) {
  // The acceptance bar for the sharded kernel: byte-identical metrics CSV
  // for shards ∈ {1, 2, 4} on a small trace.
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 2));
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
}

TEST(Runner, ShardCountInvarianceUnderAttackAndAdaptive) {
  // Harder variant: colluder crowd (attack agents + churn), adaptive
  // threshold (exercises the sharded for_each_node path) and the Newscast
  // PSS (global gossip state drawn during serial pairing only).
  const trace::Trace tr = small_trace(/*seed=*/11);
  ScenarioConfig config;
  config.adversary.roster.push_back(
      {.kind = adversary::StrategyKind::kColluder, .agents = 6,
       .start = 2 * kHour, .duty = 0.5});
  config.adaptive_threshold = true;
  config.pss = PssKind::kNewscast;
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 3));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(Runner, ShardStressCrossShardMailboxes) {
  // TSan-friendly stress: a larger population on real worker threads, with
  // shards chosen so most encounters cross shard boundaries. Asserts the
  // cross-shard path (lanes waiting on each other) actually ran and that
  // results match the serial run.
  trace::GeneratorParams params;
  params.n_peers = 48;
  params.n_swarms = 4;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  const trace::Trace tr = trace::generate_trace(params, 13);

  ScenarioConfig config;
  const std::string serial = metrics_csv(tr, config, 1);

  config.shards = 4;
  ScenarioRunner sharded(tr, config, /*seed=*/42);
  const auto firsts = trace::earliest_arrivals(tr, 2);
  sharded.publish_moderation(firsts[0], kMinute, "good metadata");
  sharded.publish_moderation(firsts[1], 2 * kMinute, "spam metadata");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p == firsts[0] || p == firsts[1]) continue;
    sharded.script_vote_on_receipt(
        p, p % 2 == 0 ? firsts[0] : firsts[1],
        p % 2 == 0 ? Opinion::kPositive : Opinion::kNegative);
  }
  sharded.run_until(tr.duration);
  EXPECT_EQ(sharded.shard_count(), 4u);
  EXPECT_GT(sharded.kernel_stats().mailed, 0u);
  EXPECT_GT(sharded.kernel_stats().levels,
            sharded.kernel_stats().rounds);  // multi-level rounds happened

  // And the full-fidelity comparison via the CSV harness.
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
}

/// Transport faults for the robustness tests: lossy enough that every
/// fault class fires on a 1-day / 20-peer trace.
ScenarioConfig faulty_config() {
  ScenarioConfig config;
  config.faults.loss = 0.25;
  config.faults.delay_rate = 0.15;
  config.faults.max_delay = 90;
  config.faults.crash_rate = 0.02;
  config.faults.corrupt_rate = 0.1;
  return config;
}

TEST(Runner, FaultedRunsAreDeterministic) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config = faulty_config();
  EXPECT_EQ(metrics_csv(tr, config, 1), metrics_csv(tr, config, 1));
}

TEST(Runner, FaultedShardCountInvariance) {
  // Acceptance bar for the fault plane: with faults ON, output (protocol
  // metrics AND degradation counters) is byte-identical for shards
  // ∈ {1, 4, 8} — every fault verdict is drawn serially at pairing time.
  const trace::Trace tr = small_trace();
  const ScenarioConfig config = faulty_config();
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(Runner, GossipCacheTransparency) {
  // Acceptance bar for the vote-history cache + delta gossip: the cache is
  // semantically transparent. Runs with the cache on (default) and off are
  // byte-identical, at shards {1, 4, 8}, with faults off and on.
  const trace::Trace tr = small_trace();
  ScenarioConfig on;
  ScenarioConfig off;
  off.vote.gossip_cache = false;
  const std::string baseline = metrics_csv(tr, on, 1);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    EXPECT_EQ(baseline, metrics_csv(tr, on, shards)) << shards;
    EXPECT_EQ(baseline, metrics_csv(tr, off, shards)) << shards;
  }
  ScenarioConfig fault_on = faulty_config();
  ScenarioConfig fault_off = faulty_config();
  fault_off.vote.gossip_cache = false;
  const std::string faulted = metrics_csv(tr, fault_on, 1);
  for (const std::size_t shards : {1u, 4u, 8u}) {
    EXPECT_EQ(faulted, metrics_csv(tr, fault_on, shards)) << shards;
    EXPECT_EQ(faulted, metrics_csv(tr, fault_off, shards)) << shards;
  }
}

TEST(Runner, FaultedRunDegradesGracefully) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config = faulty_config();
  ScenarioRunner runner(tr, config, 7);
  const auto firsts = trace::earliest_arrivals(tr, 1);
  runner.publish_moderation(firsts[0], kMinute, "metadata");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != firsts[0]) {
      runner.script_vote_on_receipt(p, firsts[0], Opinion::kPositive);
    }
  }
  runner.run_until(tr.duration);
  // The protocols kept making progress under 25 % loss...
  EXPECT_GT(runner.stats().vote_exchanges, 0u);
  EXPECT_GT(runner.stats().votes_accepted, 0u);
  EXPECT_GT(runner.stats().downloads_completed, 0u);
  // ...and the plane accounted for the damage it dealt.
  const sim::FaultCounters total = runner.fault_stats().total();
  EXPECT_GT(total.encounters_hit, 0u);
  EXPECT_GT(total.dropped_requests, 0u);
  EXPECT_GT(total.dropped_replies, 0u);
  EXPECT_GT(total.delayed, 0u);
  EXPECT_GT(total.corrupted, 0u);
  EXPECT_GT(total.one_sided, 0u);
}

TEST(Runner, CrashRoundsCompleteOnTheShardedKernel) {
  // peer_offline mid-round (fault-plane crashes) turns exchanges into
  // no-ops; the sharded kernel must still finish every round, since lanes
  // wait on those encounters. The kernel side is checked directly by
  // ShardKernel.EveryEncounterRunsOnceEvenWhenExchangesDeclineToAct.
  const trace::Trace tr = small_trace();
  ScenarioConfig config = faulty_config();
  config.faults.crash_rate = 0.1;  // crash hard and often
  config.shards = 4;
  ScenarioRunner runner(tr, config, 11);
  for (Time t = kHour; t <= tr.duration; t += kHour) {
    const std::uint64_t rounds = runner.kernel_stats().rounds;
    runner.run_until(t);
    EXPECT_GT(runner.kernel_stats().rounds, rounds) << "at t=" << t;
  }
  EXPECT_GT(runner.fault_stats().total().crashes, 0u);
  EXPECT_GT(runner.fault_stats().total().unreachable, 0u);
}

TEST(Runner, VoxPopuliRetriesRecoverLostRequests) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  config.faults.loss = 0.3;  // bootstrap requests fail often enough
  ScenarioRunner runner(tr, config, 3);
  // Populate the vote space so top-K answers are non-empty: a retry can
  // only "succeed" when there is something to learn.
  const auto firsts = trace::earliest_arrivals(tr, 1);
  runner.publish_moderation(firsts[0], kMinute, "metadata");
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != firsts[0]) {
      runner.script_vote_on_receipt(p, firsts[0], Opinion::kPositive);
    }
  }
  runner.run_until(tr.duration);
  const sim::FaultCounters total = runner.fault_stats().total();
  EXPECT_GT(total.timeouts, 0u);
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.retry_successes, 0u);
  // The budget bounds the chain: attempts never exceed budget per timeout.
  EXPECT_LE(total.retries,
            total.timeouts * config.faults.vp_retry_budget);
}

TEST(Experiment, RunReplicasAggregates) {
  trace::GeneratorParams params;
  params.n_peers = 10;
  params.n_swarms = 1;
  params.duration = kHour * 6;
  const auto traces = trace::generate_dataset(params, 3, 3);
  const auto results = run_replicas(
      traces,
      [](const trace::Trace& tr, std::size_t index) {
        ScenarioConfig config;
        ScenarioRunner runner(tr, config, 100 + index);
        ReplicaResult result;
        metrics::TimeSeries series;
        runner.sample_every(kHour, [&](Time t) {
          series.add(t, static_cast<double>(runner.online_count()));
        });
        runner.run_until(tr.duration);
        result.series["online"] = series;
        return result;
      },
      /*threads=*/2);
  ASSERT_EQ(results.size(), 3u);
  const auto agg = aggregate_named(results, "online");
  EXPECT_EQ(agg.times.size(), 7u);  // t = 0..6h inclusive
  const auto missing = aggregate_named(results, "nope");
  EXPECT_TRUE(missing.times.empty());
}

}  // namespace
}  // namespace tribvote::core
