// Adversary plane: roster parsing, id layout, the inert-when-off
// contract, per-strategy effects and the shard-invariance acceptance bar
// (byte-identical metrics at shards {1, 4, 8}, faults on, for every
// strategy and both workloads).
#include "adversary/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/runner.hpp"
#include "metrics/degradation.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"

namespace tribvote::adversary {
namespace {

using core::ScenarioConfig;
using core::ScenarioRunner;

// ---- spec parsing ------------------------------------------------------------

TEST(AdversarySpec, ParseFullRoster) {
  AdversaryConfig c;
  std::string error;
  ASSERT_TRUE(parse_adversary_spec(
      "attrition:n=20,rate=4,start=3600,duty=0.5,session=1800;"
      "sybil:n=16,region=4,credit=2.5,victim=3;"
      "nuisance:n=8,flip=0.3;colluder:n=6,fake_exp=1,fake_mb=500;front:n=4",
      c, &error))
      << error;
  ASSERT_EQ(c.roster.size(), 5u);
  EXPECT_EQ(c.roster[0].kind, StrategyKind::kAttrition);
  EXPECT_EQ(c.roster[0].agents, 20u);
  EXPECT_EQ(c.roster[0].rate, 4u);
  EXPECT_EQ(c.roster[0].start, 3600);
  EXPECT_DOUBLE_EQ(c.roster[0].duty, 0.5);
  EXPECT_EQ(c.roster[0].session_mean, 1800);
  EXPECT_EQ(c.roster[1].kind, StrategyKind::kSybil);
  EXPECT_EQ(c.roster[1].region, 4u);
  EXPECT_DOUBLE_EQ(c.roster[1].credit_mb, 2.5);
  EXPECT_EQ(c.roster[1].victim, 3u);
  EXPECT_EQ(c.roster[2].kind, StrategyKind::kNuisance);
  EXPECT_DOUBLE_EQ(c.roster[2].flip, 0.3);
  EXPECT_TRUE(c.roster[3].fake_experience);
  EXPECT_DOUBLE_EQ(c.roster[3].fake_mb, 500.0);
  EXPECT_EQ(c.roster[4].kind, StrategyKind::kFrontPeer);
  EXPECT_EQ(c.total_agents(), 54u);
  EXPECT_TRUE(c.enabled());
}

TEST(AdversarySpec, EmptySpecParsesToEmptyRoster) {
  AdversaryConfig c;
  ASSERT_TRUE(parse_adversary_spec("", c, nullptr));
  EXPECT_TRUE(c.roster.empty());
  EXPECT_FALSE(c.enabled());
}

TEST(AdversarySpec, ZeroAgentEntryStaysDisabled) {
  AdversaryConfig c;
  ASSERT_TRUE(parse_adversary_spec("attrition", c, nullptr));
  ASSERT_EQ(c.roster.size(), 1u);
  EXPECT_FALSE(c.enabled());  // n defaults to 0: an inert roster entry
}

TEST(AdversarySpec, RejectsUnknownKindAndKey) {
  AdversaryConfig c;
  std::string error;
  EXPECT_FALSE(parse_adversary_spec("ddos:n=4", c, &error));
  EXPECT_NE(error.find("ddos"), std::string::npos) << error;
  EXPECT_FALSE(parse_adversary_spec("attrition:bogus=1", c, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(AdversarySpec, RejectsOutOfRangeValues) {
  AdversaryConfig c;
  EXPECT_FALSE(parse_adversary_spec("nuisance:n=4,flip=1.5", c, nullptr));
  EXPECT_FALSE(parse_adversary_spec("sybil:n=4,region=1", c, nullptr));
  EXPECT_FALSE(parse_adversary_spec("attrition:n=4,duty=0", c, nullptr));
  EXPECT_FALSE(parse_adversary_spec("attrition:n=4,rate=0", c, nullptr));
  EXPECT_FALSE(parse_adversary_spec("attrition:n=abc", c, nullptr));
}

TEST(AdversarySpec, DescribeRoundTripsTheRoster) {
  EXPECT_EQ(describe(AdversaryConfig{}), "off");
  AdversaryConfig c;
  ASSERT_TRUE(
      parse_adversary_spec("attrition:n=20,rate=4;sybil:n=16,region=4", c));
  const std::string s = describe(c);
  EXPECT_NE(s.find("attrition:n=20"), std::string::npos) << s;
  EXPECT_NE(s.find("sybil:n=16"), std::string::npos) << s;
}

// ---- layout ------------------------------------------------------------------

TEST(AdversaryLayout, DenseIdsInRosterOrder) {
  AdversaryConfig c;
  ASSERT_TRUE(parse_adversary_spec("attrition:n=3;sybil:n=6,region=3", c));
  const Layout layout(c, /*first_id=*/100);
  EXPECT_FALSE(layout.empty());
  EXPECT_EQ(layout.first_id(), 100u);
  EXPECT_EQ(layout.end_id(), 109u);
  EXPECT_FALSE(layout.is_adversary(99));
  EXPECT_TRUE(layout.is_adversary(100));
  EXPECT_TRUE(layout.is_adversary(108));
  EXPECT_FALSE(layout.is_adversary(109));
  EXPECT_EQ(layout.agents_of(0), (std::vector<PeerId>{100, 101, 102}));
  EXPECT_EQ(layout.agents_of(1).size(), 6u);
  EXPECT_EQ(layout.agents_of(1).front(), 103u);
}

TEST(AdversaryLayout, SpamModeratorIsFirstLyingAgent) {
  AdversaryConfig c;
  ASSERT_TRUE(parse_adversary_spec("attrition:n=3;colluder:n=4", c));
  const Layout layout(c, 50);
  // Attrition does not lie about votes; the colluder block starts at 53.
  EXPECT_EQ(layout.spam_moderator(), 53u);
  EXPECT_TRUE(layout.profile(53).spam_votes);
  EXPECT_FALSE(layout.profile(50).spam_votes);

  const Layout none(AdversaryConfig{}, 50);
  EXPECT_EQ(none.spam_moderator(), kInvalidModerator);
}

TEST(AdversaryLayout, SybilRegionsHaveOneWorkerEach) {
  AdversaryConfig c;
  ASSERT_TRUE(parse_adversary_spec("sybil:n=6,region=3", c));
  const Layout layout(c, 10);
  // Two regions: [10, 11, 12] headed by 10 and [13, 14, 15] headed by 13.
  for (PeerId id = 10; id < 16; ++id) {
    const AgentProfile& p = layout.profile(id);
    EXPECT_EQ(p.worker, id == 10 || id == 13) << id;
    EXPECT_EQ(p.region_head, id < 13 ? 10u : 13u) << id;
    EXPECT_TRUE(p.spam_votes) << id;  // sybils free-ride the vote plane
  }
}

// ---- runner integration --------------------------------------------------------

/// Small, fast trace for the runner tests (mirrors core_runner_test).
trace::Trace small_trace(std::uint64_t seed = 5) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  return trace::generate_trace(params, seed);
}

/// Scripted scenario at a given shard count, serialized to a CSV string —
/// protocol counters, bit-exact CEV, rankings, degradation counters, the
/// adversary plane's own stats and the streaming totals, so any
/// shard-count divergence anywhere in the stack shows up as a byte
/// difference.
std::string metrics_csv(const trace::Trace& tr, ScenarioConfig config,
                        std::size_t shards) {
  config.shards = shards;
  ScenarioRunner runner(tr, config, /*seed=*/42);
  const auto firsts = trace::earliest_arrivals(tr, 2);
  runner.publish_moderation(firsts[0], kMinute, "good metadata");
  runner.publish_moderation(firsts[1], 2 * kMinute, "plain metadata");
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
  char tail[256];
  std::snprintf(tail, sizeof tail, "final,%llu,%llu,%llu,%.17g\n",
                static_cast<unsigned long long>(
                    runner.stats().downloads_completed),
                static_cast<unsigned long long>(runner.stats().vote_exchanges),
                static_cast<unsigned long long>(
                    runner.stats().moderation_exchanges),
                runner.ledger().total_uploaded_mb(0));
  csv += tail;
  csv += "faults";
  for (const auto& [name, value] :
       metrics::degradation_columns(runner.fault_stats())) {
    csv += ',' + std::to_string(value);
  }
  csv += '\n';
  const AdversaryStats as = runner.adversary_stats();
  std::snprintf(tail, sizeof tail,
                "adv,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.17g\n",
                static_cast<unsigned long long>(as.activations),
                static_cast<unsigned long long>(as.presence_flips),
                static_cast<unsigned long long>(as.floods_sent),
                static_cast<unsigned long long>(as.flood_bytes),
                static_cast<unsigned long long>(as.flood_rejected),
                static_cast<unsigned long long>(as.nuisance_flips),
                static_cast<unsigned long long>(as.credit_transfers),
                as.credit_mb);
  csv += tail;
  const bt::StreamingTotals stot = runner.streaming_totals();
  std::snprintf(tail, sizeof tail, "stream,%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(stot.started),
                static_cast<unsigned long long>(stot.finished),
                static_cast<unsigned long long>(stot.pieces_on_time),
                static_cast<unsigned long long>(stot.deadline_misses));
  csv += tail;
  return csv;
}

ScenarioConfig config_with(const std::string& adversary_spec,
                           bool streaming = false) {
  ScenarioConfig config;
  std::string error;
  EXPECT_TRUE(parse_adversary_spec(adversary_spec, config.adversary, &error))
      << error;
  config.streaming.enabled = streaming;
  // Transport faults on: the plane must stay shard-invariant even when its
  // agents' encounters fault (the acceptance bar in ISSUE terms).
  config.faults.loss = 0.2;
  config.faults.delay_rate = 0.1;
  config.faults.crash_rate = 0.02;
  config.faults.corrupt_rate = 0.05;
  return config;
}

TEST(AdversaryRunner, EmptyRosterConstructsNoEngineOrAgents) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ScenarioRunner runner(tr, config, 42);
  EXPECT_EQ(runner.adversary(), nullptr);
  EXPECT_TRUE(runner.adversary_layout().empty());
  EXPECT_EQ(runner.population_size(), tr.peers.size());
  EXPECT_EQ(runner.adversary_stats().activations, 0u);
}

TEST(AdversaryRunner, RosterIdsStartAtTracePeerCount) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(parse_adversary_spec("colluder:n=4;attrition:n=3",
                                   config.adversary));
  ScenarioRunner runner(tr, config, 42);
  const PeerId first = static_cast<PeerId>(runner.trace_peer_count());
  EXPECT_EQ(runner.trace_peer_count(), tr.peers.size());
  EXPECT_EQ(runner.population_size(), tr.peers.size() + 4 + 3);
  EXPECT_EQ(runner.adversary_layout().first_id(), first);
  // The colluder entry comes first, so it owns M0; attrition follows it.
  EXPECT_EQ(runner.adversary_layout().spam_moderator(), first);
  EXPECT_EQ(runner.adversary_layout().agents_of(1).front(), first + 4);
  ASSERT_NE(runner.adversary(), nullptr);
}

TEST(AdversaryRunner, AttritionFloodsBurnBudgetsButStayRejected) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(parse_adversary_spec("attrition:n=4,rate=3,start=3600",
                                   config.adversary));
  ScenarioRunner runner(tr, config, 42);
  runner.run_until(tr.duration);
  const AdversaryStats as = runner.adversary_stats();
  EXPECT_EQ(as.activations, 1u);
  EXPECT_GT(as.floods_sent, 0u);
  EXPECT_GT(as.flood_bytes, 0u);
  // Flooders never earn experience, so every flood bounces off E.
  EXPECT_EQ(as.flood_rejected, as.floods_sent);
}

TEST(AdversaryRunner, NuisanceChurnsVotesAndEarnsExperience) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(parse_adversary_spec("nuisance:n=4,flip=0.5,credit=3",
                                   config.adversary));
  ScenarioRunner runner(tr, config, 42);
  // Nuisance agents churn votes on moderators they have heard of, so give
  // the gossip plane something to spread.
  const auto firsts = trace::earliest_arrivals(tr, 1);
  runner.publish_moderation(firsts[0], kMinute, "churn target");
  runner.run_until(tr.duration);
  const AdversaryStats as = runner.adversary_stats();
  EXPECT_GT(as.nuisance_flips, 0u);
  EXPECT_GT(as.credit_transfers, 0u);
  // The dripped credit is genuine: it lands in the ground-truth ledger.
  const PeerId agent = runner.adversary_layout().first_id();
  EXPECT_GT(runner.ledger().total_uploaded_mb(agent), 0.0);
}

TEST(AdversaryRunner, SybilRegionClearsExperienceThroughItsWorker) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(parse_adversary_spec("sybil:n=4,region=4,credit=2",
                                   config.adversary));
  ScenarioRunner runner(tr, config, 42);
  runner.run_until(tr.duration);
  const Layout& layout = runner.adversary_layout();
  const PeerId worker = layout.first_id();
  const PeerId member = worker + 1;
  // Members upload to the worker, the worker uploads outward — every edge
  // is a real ledger row, so two-hop max-flow member -> worker -> honest
  // clears E for the whole region.
  EXPECT_GT(runner.ledger().total_uploaded_mb(worker), 0.0);
  EXPECT_GT(runner.ledger().total_uploaded_mb(member), 0.0);
  EXPECT_GT(runner.adversary_stats().credit_transfers, 0u);
  // And the region promotes its M0 like a flash crowd.
  EXPECT_EQ(layout.spam_moderator(), worker);
}

TEST(AdversaryRunner, DutyCycledAgentsChurn) {
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(parse_adversary_spec(
      "attrition:n=6,rate=1,duty=0.5,session=1800", config.adversary));
  ScenarioRunner runner(tr, config, 42);
  runner.run_until(tr.duration);
  EXPECT_GT(runner.adversary_stats().presence_flips, 6u);
}

// ---- shard invariance (the acceptance bar) -----------------------------------

TEST(AdversaryRunner, ShardInvarianceColluder) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config =
      config_with("colluder:n=6,start=7200,duty=0.5,victim=2");
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ShardInvarianceFrontPeer) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config = config_with("front:n=5,fake_mb=200");
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ShardInvarianceAttrition) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config =
      config_with("attrition:n=5,rate=3,duty=0.6,session=1800");
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ShardInvarianceNuisance) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config =
      config_with("nuisance:n=5,flip=0.4,credit=2");
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ShardInvarianceSybil) {
  const trace::Trace tr = small_trace();
  const ScenarioConfig config =
      config_with("sybil:n=8,region=4,credit=2,victim=2");
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ShardInvarianceMixedRosterOnStreamingWorkload) {
  // The full stack at once: two strategies, streaming workload, transport
  // faults — the hardest determinism surface this PR adds.
  const trace::Trace tr = small_trace(/*seed=*/11);
  const ScenarioConfig config = config_with(
      "attrition:n=4,rate=2;sybil:n=4,region=4", /*streaming=*/true);
  const std::string serial = metrics_csv(tr, config, 1);
  EXPECT_EQ(serial, metrics_csv(tr, config, 4));
  EXPECT_EQ(serial, metrics_csv(tr, config, 8));
}

TEST(AdversaryRunner, ChaosAttritionUnderBurstyLossWithTelemetry) {
  // Chaos smoke: attrition floods + Gilbert–Elliott bursty loss +
  // telemetry counters on, twice — identical counters both times.
  const trace::Trace tr = small_trace();
  ScenarioConfig config;
  ASSERT_TRUE(
      parse_adversary_spec("attrition:n=4,rate=2", config.adversary));
  std::string error;
  ASSERT_TRUE(sim::parse_fault_spec("ge=0.3,part_period=32,part_width=4,"
                                    "part_frac=0.5",
                                    config.faults, &error))
      << error;
  config.telemetry.mode = telemetry::TelemetryMode::kCounters;
  auto run = [&] {
    ScenarioRunner runner(tr, config, 42);
    runner.run_until(tr.duration);
    EXPECT_GT(runner.fault_stats().total().ge_bad_encounters, 0u);
    EXPECT_GT(runner.fault_stats().total().partitioned, 0u);
    EXPECT_GT(runner.adversary_stats().floods_sent, 0u);
    EXPECT_NE(runner.telemetry(), nullptr);
    char line[160];
    std::snprintf(
        line, sizeof line, "%llu,%llu,%llu",
        static_cast<unsigned long long>(
            runner.telemetry()->registry().total_by_name("adv.floods_sent")),
        static_cast<unsigned long long>(
            runner.adversary_stats().flood_bytes),
        static_cast<unsigned long long>(runner.stats().votes_accepted));
    return std::string(line);
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first, "0,0,0");
}

}  // namespace
}  // namespace tribvote::adversary
