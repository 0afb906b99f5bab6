#include "sim/fault_plane.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace tribvote::sim {
namespace {

using util::EncounterFaults;
using util::PayloadFault;

bool same_verdict(const EncounterFaults& a, const EncounterFaults& b) {
  return a.unreachable == b.unreachable && a.drop_request == b.drop_request &&
         a.drop_reply == b.drop_reply &&
         a.crash_responder == b.crash_responder &&
         a.delay_reply == b.delay_reply &&
         a.request_payload == b.request_payload &&
         a.reply_payload == b.reply_payload &&
         a.payload_salt == b.payload_salt;
}

/// A lossy-everything config for the determinism/normalization tests.
FaultConfig chaos_config() {
  FaultConfig f;
  f.loss = 0.3;
  f.delay_rate = 0.25;
  f.max_delay = 40;
  f.crash_rate = 0.1;
  f.corrupt_rate = 0.2;
  return f;
}

std::vector<Encounter> ring_round(std::size_t n) {
  std::vector<Encounter> encounters;
  for (std::size_t i = 0; i < n; ++i) {
    encounters.push_back({static_cast<std::uint32_t>(i),
                          static_cast<PeerId>(i),
                          static_cast<PeerId>((i + 1) % n)});
  }
  return encounters;
}

// ---- config parsing --------------------------------------------------------

TEST(FaultConfig, ParseFullSpec) {
  FaultConfig f;
  std::string error;
  ASSERT_TRUE(parse_fault_spec(
      "loss=0.3,delay=0.1,max_delay=120,crash=0.01,corrupt=0.05,"
      "retries=6,retry_base=20",
      f, &error))
      << error;
  EXPECT_DOUBLE_EQ(f.loss, 0.3);
  EXPECT_DOUBLE_EQ(f.delay_rate, 0.1);
  EXPECT_EQ(f.max_delay, 120);
  EXPECT_DOUBLE_EQ(f.crash_rate, 0.01);
  EXPECT_DOUBLE_EQ(f.corrupt_rate, 0.05);
  EXPECT_EQ(f.vp_retry_budget, 6u);
  EXPECT_EQ(f.vp_retry_base, 20);
  EXPECT_TRUE(f.enabled());
}

TEST(FaultConfig, EmptySpecKeepsDefaultsAndStaysDisabled) {
  FaultConfig f;
  ASSERT_TRUE(parse_fault_spec("", f, nullptr));
  EXPECT_FALSE(f.enabled());
}

TEST(FaultConfig, RetryKnobsAloneDoNotEnableThePlane) {
  FaultConfig f;
  ASSERT_TRUE(parse_fault_spec("retries=8,retry_base=5", f, nullptr));
  EXPECT_FALSE(f.enabled());  // golden runs must stay golden
}

TEST(FaultConfig, ParseRejectsUnknownKey) {
  FaultConfig f;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("loss=0.1,bogus=3", f, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(FaultConfig, ParseRejectsOutOfRangeProbability) {
  FaultConfig f;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("loss=1.5", f, &error));
  EXPECT_FALSE(parse_fault_spec("crash=-0.1", f, nullptr));
  EXPECT_FALSE(parse_fault_spec("max_delay=0", f, nullptr));
}

TEST(FaultConfig, ParseRejectsMalformedField) {
  FaultConfig f;
  EXPECT_FALSE(parse_fault_spec("loss", f, nullptr));
  EXPECT_FALSE(parse_fault_spec("loss=abc", f, nullptr));
}

TEST(FaultConfig, DescribeIsOffWhenDisabledAndNamesRatesWhenNot) {
  EXPECT_EQ(describe(FaultConfig{}), "off");
  FaultConfig f;
  f.loss = 0.3;
  const std::string s = describe(f);
  EXPECT_NE(s.find("loss=0.3"), std::string::npos) << s;
}

TEST(FaultConfig, ParseGeShorthandSolvesForStationaryLoss) {
  FaultConfig f;
  std::string error;
  ASSERT_TRUE(parse_fault_spec("ge=0.3", f, &error)) << error;
  EXPECT_TRUE(f.enabled());
  EXPECT_DOUBLE_EQ(f.ge_loss_bad, 0.8);
  EXPECT_DOUBLE_EQ(f.ge_loss_good, 0.03);
  EXPECT_DOUBLE_EQ(f.ge_bad_to_good, 0.25);
  EXPECT_GT(f.ge_good_to_bad, 0.0);
  // The chain's stationary loss rate must equal the requested 0.3 (same
  // solver as net::parse_impair_spec, so A11 and A12 sweep one axis).
  const double pi_bad =
      f.ge_good_to_bad / (f.ge_good_to_bad + f.ge_bad_to_good);
  EXPECT_NEAR(pi_bad * f.ge_loss_bad + (1.0 - pi_bad) * f.ge_loss_good, 0.3,
              1e-12);
}

TEST(FaultConfig, ParseRejectsGeAtOrAboveBadStateLoss) {
  FaultConfig f;
  EXPECT_FALSE(parse_fault_spec("ge=0.8", f, nullptr));
  EXPECT_FALSE(parse_fault_spec("ge=-0.1", f, nullptr));
}

TEST(FaultConfig, ParsePartitionKeys) {
  FaultConfig f;
  ASSERT_TRUE(
      parse_fault_spec("part_period=64,part_width=8,part_frac=0.25", f));
  EXPECT_EQ(f.partition_period, 64u);
  EXPECT_EQ(f.partition_width, 8u);
  EXPECT_DOUBLE_EQ(f.partition_frac, 0.25);
  EXPECT_TRUE(f.enabled());
  // A fraction without a period schedules nothing and stays disabled.
  FaultConfig g;
  ASSERT_TRUE(parse_fault_spec("part_frac=0.5", g));
  EXPECT_FALSE(g.enabled());
}

TEST(FaultConfig, DescribeNamesGeAndPartitions) {
  FaultConfig f;
  ASSERT_TRUE(parse_fault_spec("ge=0.3,part_period=64,part_frac=0.25", f));
  const std::string s = describe(f);
  EXPECT_NE(s.find("ge="), std::string::npos) << s;
  EXPECT_NE(s.find("part=64/"), std::string::npos) << s;
}

// ---- verdict drawing -------------------------------------------------------

TEST(FaultPlane, DrawIsAPureFunctionOfSeedProtocolRoundSeq) {
  const auto encounters = ring_round(64);
  FaultPlane a(chaos_config(), util::Rng(42), 1);
  FaultPlane b(chaos_config(), util::Rng(42), 1);
  for (int round = 0; round < 5; ++round) {
    const auto& ta = a.draw_round(Protocol::kVote, encounters);
    const auto& tb = b.draw_round(Protocol::kVote, encounters);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_TRUE(same_verdict(ta[i], tb[i]))
          << "round " << round << " seq " << i;
    }
  }
}

TEST(FaultPlane, DisabledPlaneHandsOutAnAllClearTable) {
  // The runner runs one faulted round body whatever the config; a default
  // (disabled) plane must make that body the fault-free encounter: every
  // verdict clear, nothing counted, nothing left to apply after the round.
  FaultPlane plane(FaultConfig{}, util::Rng(5), 4);
  ASSERT_FALSE(plane.enabled());
  for (const Protocol proto :
       {Protocol::kVote, Protocol::kModeration, Protocol::kBarter}) {
    for (const std::size_t n : {0u, 1u, 64u}) {
      const auto& table = plane.draw_round(proto, ring_round(n));
      ASSERT_EQ(table.size(), n);
      for (const EncounterFaults& f : table) {
        EXPECT_FALSE(f.any());
        EXPECT_TRUE(same_verdict(f, EncounterFaults{}));
      }
      const RoundOutcome out = plane.finish_round();
      EXPECT_TRUE(out.deferred.empty());
      EXPECT_TRUE(out.crashed.empty());
      EXPECT_TRUE(out.vp_failures.empty());
    }
  }
  const FaultCounters total = plane.stats().total();
  EXPECT_EQ(total.encounters_hit, 0u);
  EXPECT_EQ(total.dropped_requests, 0u);
  EXPECT_EQ(total.dropped_replies, 0u);
  EXPECT_EQ(total.delayed, 0u);
  EXPECT_EQ(total.crashes, 0u);
  EXPECT_EQ(total.unreachable, 0u);
  EXPECT_EQ(total.corrupted, 0u);
  EXPECT_EQ(total.one_sided, 0u);
  EXPECT_EQ(total.partitioned, 0u);
  EXPECT_EQ(total.ge_bad_encounters, 0u);
}

TEST(FaultPlane, DrawIsIndependentOfLaneCount) {
  // The verdict table is drawn serially before lanes run, so the lane
  // count (= shard count) must never influence it — this is the fault
  // half of the shard-invariance guarantee.
  const auto encounters = ring_round(64);
  FaultPlane one(chaos_config(), util::Rng(7), 1);
  FaultPlane eight(chaos_config(), util::Rng(7), 8);
  const auto& t1 = one.draw_round(Protocol::kModeration, encounters);
  const auto& t8 = eight.draw_round(Protocol::kModeration, encounters);
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_TRUE(same_verdict(t1[i], t8[i])) << "seq " << i;
  }
}

TEST(FaultPlane, StreamsAreKeyedByProtocolAndRound) {
  const auto encounters = ring_round(256);
  FaultPlane plane(chaos_config(), util::Rng(3), 1);
  auto fingerprint = [&](const std::vector<EncounterFaults>& t) {
    std::uint64_t fp = 0;
    for (const auto& f : t) fp = fp * 31 + f.payload_salt;
    return fp;
  };
  const auto vote0 = fingerprint(plane.draw_round(Protocol::kVote, encounters));
  const auto vote1 = fingerprint(plane.draw_round(Protocol::kVote, encounters));
  const auto barter0 =
      fingerprint(plane.draw_round(Protocol::kBarter, encounters));
  EXPECT_NE(vote0, vote1);    // round counter advances per protocol
  EXPECT_NE(vote0, barter0);  // protocols never share a stream
}

TEST(FaultPlane, VerdictsAreNormalizedToAConsistentStory) {
  const auto encounters = ring_round(512);
  FaultConfig config = chaos_config();
  FaultPlane plane(config, util::Rng(99), 1);
  for (int round = 0; round < 10; ++round) {
    for (const auto& f : plane.draw_round(Protocol::kVote, encounters)) {
      if (f.unreachable) {
        // An encounter voided by an earlier crash carries no other fault.
        EXPECT_FALSE(f.drop_request || f.drop_reply || f.crash_responder ||
                     f.delay_reply != 0 ||
                     f.request_payload != PayloadFault::kNone ||
                     f.reply_payload != PayloadFault::kNone);
        continue;
      }
      if (f.drop_request) {
        // The responder never saw the dial: nothing downstream applies.
        EXPECT_FALSE(f.drop_reply);
        EXPECT_FALSE(f.crash_responder);
        EXPECT_EQ(f.delay_reply, 0);
        EXPECT_EQ(f.request_payload, PayloadFault::kNone);
        EXPECT_EQ(f.reply_payload, PayloadFault::kNone);
      }
      if (f.crash_responder) {
        EXPECT_FALSE(f.drop_reply);  // crash already explains the silence
        EXPECT_EQ(f.reply_payload, PayloadFault::kNone);
      }
      if (f.reply_lost()) {
        EXPECT_EQ(f.delay_reply, 0);
      }
      if (f.delay_reply != 0) {
        EXPECT_GE(f.delay_reply, 1);
        EXPECT_LE(f.delay_reply, config.max_delay);
      }
    }
  }
}

TEST(FaultPlane, CrashMakesLaterEncountersWithThatPeerUnreachable) {
  FaultConfig config;
  config.crash_rate = 1.0;  // every reachable responder crashes
  FaultPlane plane(config, util::Rng(5), 1);
  // seq 0 crashes peer 1; seq 1 (responder 1) and seq 2 (initiator 1) are
  // then unreachable; seq 3 touches fresh peers and crashes peer 5.
  const std::vector<Encounter> encounters{
      {0, 0, 1}, {1, 2, 1}, {2, 1, 3}, {3, 4, 5}};
  const auto& table = plane.draw_round(Protocol::kVote, encounters);
  EXPECT_TRUE(table[0].crash_responder);
  EXPECT_TRUE(table[1].unreachable);
  EXPECT_TRUE(table[2].unreachable);
  EXPECT_FALSE(table[3].unreachable);
  EXPECT_TRUE(table[3].crash_responder);

  const auto outcome = plane.finish_round();
  EXPECT_EQ(outcome.crashed, (std::vector<PeerId>{1, 5}));
  EXPECT_EQ(plane.stats().vote.crashes, 2u);
  EXPECT_EQ(plane.stats().vote.unreachable, 2u);
}

// ---- Gilbert–Elliott bursty loss and scheduled partitions -------------------

TEST(FaultPlane, GeChainIsDeterministicAndLaneCountInvariant) {
  FaultConfig config;
  std::string error;
  ASSERT_TRUE(parse_fault_spec("ge=0.3", config, &error)) << error;
  const auto encounters = ring_round(128);
  FaultPlane one(config, util::Rng(42), 1);
  FaultPlane eight(config, util::Rng(42), 8);
  for (int round = 0; round < 6; ++round) {
    // The chain advances once per encounter in seq order during the
    // serial draw, so the trajectory must not depend on the lane count.
    const auto& t1 = one.draw_round(Protocol::kVote, encounters);
    const auto& t8 = eight.draw_round(Protocol::kVote, encounters);
    ASSERT_EQ(t1.size(), t8.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
      EXPECT_TRUE(same_verdict(t1[i], t8[i])) << "round " << round
                                              << " seq " << i;
    }
  }
  EXPECT_GT(one.stats().vote.ge_bad_encounters, 0u);
  EXPECT_EQ(one.stats().vote.ge_bad_encounters,
            eight.stats().vote.ge_bad_encounters);
}

TEST(FaultPlane, GeBadStateDropsInBursts) {
  // With an always-bad chain (g2b=1, b2g=0) every leg sees the bad-state
  // loss; with loss_bad=1 every request drops.
  FaultConfig config;
  config.ge_good_to_bad = 1.0;
  config.ge_bad_to_good = 0.0;
  config.ge_loss_good = 0.0;
  config.ge_loss_bad = 1.0;
  FaultPlane plane(config, util::Rng(9), 1);
  const auto encounters = ring_round(32);
  for (const auto& f : plane.draw_round(Protocol::kBarter, encounters)) {
    EXPECT_TRUE(f.drop_request);
  }
  EXPECT_EQ(plane.stats().barter.ge_bad_encounters, 32u);
}

TEST(FaultPlane, PartitionsSkipColdStartAndFollowTheWindow) {
  FaultConfig config;
  ASSERT_TRUE(
      parse_fault_spec("part_period=4,part_width=2,part_frac=1.0", config));
  FaultPlane plane(config, util::Rng(7), 1);
  // The first window opens one full period in; then rounds r with
  // r % period < width are dark for every node at frac=1.
  for (std::uint64_t round = 0; round < 12; ++round) {
    const bool dark = round >= 4 && round % 4 < 2;
    EXPECT_EQ(plane.partitioned(round, PeerId{3}), dark) << round;
  }
}

TEST(FaultPlane, PartitionKeyIsPerWindowAndNode) {
  FaultConfig config;
  ASSERT_TRUE(
      parse_fault_spec("part_period=4,part_width=1,part_frac=0.5", config));
  FaultPlane a(config, util::Rng(11), 1);
  FaultPlane b(config, util::Rng(11), 4);
  bool any_dark = false;
  bool any_bright = false;
  for (PeerId node = 0; node < 64; ++node) {
    const bool dark = a.partitioned(8, node);
    // Same seed, same window, same node => same verdict, lanes aside.
    EXPECT_EQ(dark, b.partitioned(8, node)) << node;
    // Within one window the verdict is stable across repeated queries
    // (protocols sharing a round index see the same nodes dark).
    EXPECT_EQ(dark, a.partitioned(8, node)) << node;
    any_dark = any_dark || dark;
    any_bright = any_bright || !dark;
  }
  EXPECT_TRUE(any_dark);
  EXPECT_TRUE(any_bright);
}

TEST(FaultPlane, PartitionedEncountersAreVoidedAndCounted) {
  FaultConfig config;
  ASSERT_TRUE(
      parse_fault_spec("part_period=2,part_width=2,part_frac=1.0", config));
  FaultPlane plane(config, util::Rng(3), 1);
  const auto encounters = ring_round(16);
  // Rounds 0 and 1 are cold start; round 2 onward everything is dark.
  (void)plane.draw_round(Protocol::kVote, encounters);
  (void)plane.finish_round();
  (void)plane.draw_round(Protocol::kVote, encounters);
  (void)plane.finish_round();
  EXPECT_EQ(plane.stats().vote.partitioned, 0u);
  const auto& table = plane.draw_round(Protocol::kVote, encounters);
  for (const auto& f : table) EXPECT_TRUE(f.unreachable);
  EXPECT_EQ(plane.stats().vote.partitioned, 16u);
}

// ---- lane buffers and the round outcome ------------------------------------

TEST(FaultPlane, FinishRoundMergesLaneBuffersInSeqOrder) {
  FaultPlane plane(chaos_config(), util::Rng(1), 3);
  std::vector<int> delivered;
  // Lanes record out of order and across lanes; the merge must come back
  // in encounter-seq order regardless.
  plane.defer(2, 7, 10, [&] { delivered.push_back(7); });
  plane.defer(0, 3, 5, [&] { delivered.push_back(3); });
  plane.defer(1, 5, 20, [&] { delivered.push_back(5); });
  plane.record_vp_failure(1, 9, PeerId{4});
  plane.record_vp_failure(0, 2, PeerId{8});

  auto outcome = plane.finish_round();
  ASSERT_EQ(outcome.deferred.size(), 3u);
  EXPECT_EQ(outcome.deferred[0].seq, 3u);
  EXPECT_EQ(outcome.deferred[1].seq, 5u);
  EXPECT_EQ(outcome.deferred[2].seq, 7u);
  for (const auto& d : outcome.deferred) d.deliver();
  EXPECT_EQ(delivered, (std::vector<int>{3, 5, 7}));

  ASSERT_EQ(outcome.vp_failures.size(), 2u);
  EXPECT_EQ(outcome.vp_failures[0].seq, 2u);
  EXPECT_EQ(outcome.vp_failures[0].initiator, PeerId{8});
  EXPECT_EQ(outcome.vp_failures[1].seq, 9u);

  // Buffers are consumed: a second finish_round hands back nothing.
  const auto empty = plane.finish_round();
  EXPECT_TRUE(empty.deferred.empty());
  EXPECT_TRUE(empty.vp_failures.empty());
  EXPECT_TRUE(empty.crashed.empty());
}

TEST(FaultPlane, LaneCountersMergeIntoStatsAtFinishRound) {
  FaultPlane plane(chaos_config(), util::Rng(1), 2);
  plane.lane_stats(0).vote.rejected = 3;
  plane.lane_stats(1).vote.rejected = 4;
  plane.lane_stats(1).vox.timeouts = 2;
  EXPECT_EQ(plane.stats().vote.rejected, 0u);  // not visible until the merge
  (void)plane.finish_round();
  EXPECT_EQ(plane.stats().vote.rejected, 7u);
  EXPECT_EQ(plane.stats().vox.timeouts, 2u);
  EXPECT_EQ(plane.stats().total().rejected, 7u);
  // Lane blocks were reset — a second round does not double-count.
  (void)plane.finish_round();
  EXPECT_EQ(plane.stats().vote.rejected, 7u);
}

TEST(FaultPlane, RetryStreamsAreDeterministicAcrossPlanes) {
  FaultPlane a(chaos_config(), util::Rng(6), 1);
  FaultPlane b(chaos_config(), util::Rng(6), 1);
  a.record_vp_failure(0, 11, PeerId{2});
  b.record_vp_failure(0, 11, PeerId{2});
  auto oa = a.finish_round();
  auto ob = b.finish_round();
  ASSERT_EQ(oa.vp_failures.size(), 1u);
  ASSERT_EQ(ob.vp_failures.size(), 1u);
  // The retry chain replays identically: same seed, same draws.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(oa.vp_failures[0].retry_rng(), ob.vp_failures[0].retry_rng());
  }
}

}  // namespace
}  // namespace tribvote::sim
