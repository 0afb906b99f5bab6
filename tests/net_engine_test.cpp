// Transport equivalence: ExchangeEngine vs the simulator oracle.
//
// Two pairs of agents are built from identical seeds — one pair driven by
// vote::vote_encounter / moderation::exchange (the sim path the figures
// run on), the other by two ExchangeEngines joined with an in-memory frame
// shuttle (the exact frames a TCP connection would carry). After each
// scenario the agents' state_digest() values must match pairwise: the wire
// protocol is a faithful re-encoding of the sim's call sequence, not a
// reimplementation that merely converges (DESIGN.md §13).
//
// Scenarios: cold full exchange, warm digest/delta, steady-state
// digest-only close, broken-digest fallback to full, fault verdicts
// (digest-routed and delta-routed, run through vote_encounter's verdict
// as the simulator runs them) with the one-verdict-poisons-leg rule,
// VoxPopuli bootstrap, and a moderation push/pull.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>

#include "crypto/schnorr.hpp"
#include "moderation/moderationcast.hpp"
#include "net/codec.hpp"
#include "net/engine.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"
#include "vote/gossip.hpp"

namespace tribvote::net {
namespace {

// ---- twin fixtures ---------------------------------------------------------

/// One node existing twice: `sim` runs the oracle path, `wire` the engine
/// path. Identical seeds mean identical keys, RNG streams and initial
/// state — any post-scenario digest mismatch is the transport's fault.
struct Twin {
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> sim;
  std::unique_ptr<vote::VoteAgent> wire;

  void cast(ModeratorId m, Opinion op, Time t) {
    sim->cast_vote(m, op, t);
    wire->cast_vote(m, op, t);
  }
};

Twin make_twin(PeerId id, std::uint64_t seed,
               vote::VoteConfig config = vote::VoteConfig{}) {
  Twin t;
  util::Rng krng(seed);
  t.keys = crypto::generate_keypair(krng);
  const auto exp = [](PeerId) { return true; };
  t.sim = std::make_unique<vote::VoteAgent>(id, t.keys, config, exp,
                                            util::Rng(seed * 7919 + 1));
  t.wire = std::make_unique<vote::VoteAgent>(id, t.keys, config, exp,
                                             util::Rng(seed * 7919 + 1));
  return t;
}

// ---- in-memory frame shuttle -----------------------------------------------

/// Ferries frames between two engines until both directions drain —
/// exactly what two NodeService ends do over TCP, minus the sockets.
/// `tamper_ab` (optional) rewrites frames travelling a → b, modelling the
/// fault plane's transit verdicts at the frame level.
struct Shuttle {
  ExchangeEngine* a;
  ExchangeEngine* b;
  std::function<void(Frame&)> tamper_ab;
  bool protocol_error = false;

  bool run(std::vector<Frame> from_a) {
    std::deque<Frame> to_b(from_a.begin(), from_a.end());
    std::deque<Frame> to_a;
    while (!to_a.empty() || !to_b.empty()) {
      std::vector<Frame> out;
      if (!to_b.empty()) {
        Frame f = to_b.front();
        to_b.pop_front();
        if (tamper_ab) tamper_ab(f);
        if (!b->on_frame(f, out)) {
          protocol_error = true;
          return false;
        }
        to_a.insert(to_a.end(), out.begin(), out.end());
      } else {
        Frame f = to_a.front();
        to_a.pop_front();
        if (!a->on_frame(f, out)) {
          protocol_error = true;
          return false;
        }
        to_b.insert(to_b.end(), out.begin(), out.end());
      }
    }
    return true;
  }
};

/// One wire vote encounter initiated by `a`.
void wire_encounter(ExchangeEngine& a, ExchangeEngine& b, Time now,
                    std::function<void(Frame&)> tamper_ab = nullptr) {
  Shuttle shuttle{&a, &b, std::move(tamper_ab)};
  std::vector<Frame> opening;
  ASSERT_TRUE(a.begin_vote_encounter(now, opening));
  ASSERT_TRUE(shuttle.run(std::move(opening)));
  EXPECT_TRUE(a.idle());
  EXPECT_TRUE(b.responder_idle());
}

/// The fault verdict of a request damaged in transit with `salt`.
util::EncounterFaults damaged_request(std::uint64_t salt) {
  util::EncounterFaults verdict;
  verdict.request_payload = util::PayloadFault::kCorrupted;
  verdict.payload_salt = salt;
  return verdict;
}

struct EnginePair {
  ExchangeEngine a;
  ExchangeEngine b;

  EnginePair(Twin& ta, Twin& tb,
             moderation::ModerationCastAgent* mod_a = nullptr,
             moderation::ModerationCastAgent* mod_b = nullptr)
      : a(*ta.wire, mod_a, 0), b(*tb.wire, mod_b, 1) {
    a.set_peer(tb.wire->self());
    b.set_peer(ta.wire->self());
  }
};

void expect_twins_match(const Twin& x, const Twin& y) {
  EXPECT_EQ(x.sim->state_digest(), x.wire->state_digest());
  EXPECT_EQ(y.sim->state_digest(), y.wire->state_digest());
}

// ---- scenarios -------------------------------------------------------------

TEST(NetEngine, ColdExchangeOpensFullAndMatchesOracle) {
  Twin a = make_twin(1, 21);
  Twin b = make_twin(2, 22);
  a.cast(10, Opinion::kPositive, 50);
  a.cast(11, Opinion::kNegative, 60);
  b.cast(10, Opinion::kPositive, 55);

  vote::vote_encounter(*a.sim, *b.sim, 100);
  EnginePair e(a, b);
  wire_encounter(e.a, e.b, 100);

  expect_twins_match(a, b);
  EXPECT_EQ(e.a.counters().encounters_completed, 1u);
  EXPECT_EQ(e.b.counters().encounters_served, 1u);
  EXPECT_EQ(e.a.counters().open_full, 1u);  // cold: no counterpart memory
  EXPECT_EQ(e.a.counters().open_digest, 0u);
  EXPECT_GE(e.b.counters().votes_accepted, 1u);
}

TEST(NetEngine, WarmExchangeUsesDigestDeltaAndMatchesOracle) {
  Twin a = make_twin(1, 31);
  Twin b = make_twin(2, 32);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);

  // New votes since the first exchange: the warm leg opens with a digest
  // and ships only the delta.
  a.cast(12, Opinion::kPositive, 150);
  b.cast(13, Opinion::kPositive, 160);
  vote::vote_encounter(*a.sim, *b.sim, 200);
  wire_encounter(e.a, e.b, 200);

  expect_twins_match(a, b);
  EXPECT_EQ(e.a.counters().open_digest, 1u);
  EXPECT_GE(e.b.counters().open_digest, 1u);
  EXPECT_EQ(e.a.counters().fallbacks_requested, 0u);
}

TEST(NetEngine, SteadyStateClosesOnDigestAloneAndMatchesOracle) {
  Twin a = make_twin(1, 41);
  Twin b = make_twin(2, 42);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);
  // Nothing changed: both legs are digest-only, nothing to request.
  vote::vote_encounter(*a.sim, *b.sim, 200);
  wire_encounter(e.a, e.b, 200);

  expect_twins_match(a, b);
  EXPECT_EQ(e.a.counters().open_digest, 1u);
  EXPECT_EQ(e.a.counters().votes_accepted, 2u);  // digest close still merges
}

TEST(NetEngine, BrokenDigestFallsBackToFullTransparently) {
  Twin a = make_twin(1, 51);
  Twin b = make_twin(2, 52);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);
  a.cast(12, Opinion::kPositive, 150);

  // Sim runs the clean exchange; the wire's forward digest is corrupted
  // above the CRC (valid frame, lying checksum). The fallback full
  // retransmit must land both twins in the same end state — the fallback
  // is semantically transparent, it only costs bytes.
  vote::vote_encounter(*a.sim, *b.sim, 200);
  wire_encounter(e.a, e.b, 200, [](Frame& f) {
    if (f.type != FrameType::kVoteDigest) return;
    vote::VoteDigestMessage d;
    ASSERT_TRUE(decode_vote_digest(f.payload, d));
    d.checksum ^= 1;
    f.payload = encode_vote_digest(d);
  });

  expect_twins_match(a, b);
  EXPECT_EQ(e.b.counters().fallbacks_requested, 1u);
  EXPECT_EQ(e.a.counters().fallbacks_served, 1u);
}

TEST(NetEngine, DigestRoutedFaultVerdictMatchesOracle) {
  Twin a = make_twin(1, 61);
  Twin b = make_twin(2, 62);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);
  a.cast(12, Opinion::kPositive, 150);

  // A verdict on the forward leg, salt-routed to the digest
  // ((salt >> 6) & 1 == 0). The sim poisons the whole leg: the fallback
  // full is damaged too and rejects wholesale. Mirror that on the wire by
  // damaging both frame kinds with the same (fault, salt).
  const std::uint64_t salt = 3;
  vote::vote_encounter(*a.sim, *b.sim, 200, damaged_request(salt));
  wire_encounter(e.a, e.b, 200, [salt](Frame& f) {
    if (f.type == FrameType::kVoteDigest) {
      vote::VoteDigestMessage d;
      ASSERT_TRUE(decode_vote_digest(f.payload, d));
      vote::damage_digest(d, util::PayloadFault::kCorrupted, salt);
      f.payload = encode_vote_digest(d);
    } else if (f.type == FrameType::kVoteFull) {
      vote::VoteListMessage m;
      ASSERT_TRUE(decode_vote_full(f.payload, m));
      vote::damage_message(m, util::PayloadFault::kCorrupted, salt);
      f.payload = encode_vote_full(m);
    }
  });

  expect_twins_match(a, b);
  EXPECT_EQ(e.b.counters().fallbacks_requested, 1u);
  EXPECT_EQ(e.b.counters().votes_rejected, 1u);  // the sim's accounting
}

TEST(NetEngine, DeltaRoutedFaultVerdictMatchesOracle) {
  Twin a = make_twin(1, 71);
  Twin b = make_twin(2, 72);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);
  a.cast(12, Opinion::kPositive, 150);  // ensures a non-empty delta

  const std::uint64_t salt = 64 + 5;  // bit 6 set: fault routes to the delta
  vote::vote_encounter(*a.sim, *b.sim, 200, damaged_request(salt));
  wire_encounter(e.a, e.b, 200, [salt](Frame& f) {
    if (f.type != FrameType::kVoteDelta) return;
    vote::VoteDeltaMessage d;
    ASSERT_TRUE(decode_vote_delta(f.payload, d));
    vote::damage_delta(d, util::PayloadFault::kCorrupted, salt);
    f.payload = encode_vote_delta(d);
  });

  expect_twins_match(a, b);
  EXPECT_EQ(e.b.counters().votes_rejected, 1u);
  EXPECT_EQ(e.b.counters().fallbacks_requested, 0u);
}

TEST(NetEngine, VoxPopuliBootstrapMatchesOracle) {
  // Initiator stays bootstrapping (huge b_min); responder ranks from its
  // box after one unique voter (b_min = 1) — its top-K answer is non-null
  // on the second encounter and must merge identically on both paths.
  vote::VoteConfig boot;
  boot.b_min = 100;
  vote::VoteConfig ranked;
  ranked.b_min = 1;
  Twin a = make_twin(1, 81, boot);
  Twin b = make_twin(2, 82, ranked);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EnginePair e(a, b);
  vote::vote_encounter(*a.sim, *b.sim, 100);
  wire_encounter(e.a, e.b, 100);
  vote::vote_encounter(*a.sim, *b.sim, 200);
  wire_encounter(e.a, e.b, 200);

  expect_twins_match(a, b);
  EXPECT_GE(e.a.counters().vox_answered, 1u);
  EXPECT_FALSE(a.wire->vox_cache().empty());
}

TEST(NetEngine, ModerationExchangeMatchesOracle) {
  Twin a = make_twin(1, 91);
  Twin b = make_twin(2, 92);

  const auto approve = [](ModeratorId) { return Opinion::kPositive; };
  moderation::ModerationCastConfig mc;
  moderation::ModerationCastAgent sim_a(1, a.keys, mc, approve,
                                        util::Rng(301));
  moderation::ModerationCastAgent wire_a(1, a.keys, mc, approve,
                                         util::Rng(301));
  moderation::ModerationCastAgent sim_b(2, b.keys, mc, approve,
                                        util::Rng(302));
  moderation::ModerationCastAgent wire_b(2, b.keys, mc, approve,
                                         util::Rng(302));

  std::vector<moderation::ModerationId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto& m = sim_a.publish(0x1000u + static_cast<unsigned>(i),
                                  "torrent " + std::to_string(i), 50 + i);
    ids.push_back(m.digest());
    (void)wire_a.publish(0x1000u + static_cast<unsigned>(i),
                         "torrent " + std::to_string(i), 50 + i);
  }
  const auto& mb = sim_b.publish(0x2000u, "from b", 60);
  ids.push_back(mb.digest());
  (void)wire_b.publish(0x2000u, "from b", 60);

  (void)moderation::exchange(sim_a, sim_b, 100);

  EnginePair e(a, b, &wire_a, &wire_b);
  Shuttle shuttle{&e.a, &e.b, nullptr};
  std::vector<Frame> opening;
  ASSERT_TRUE(e.a.begin_moderation_encounter(100, opening));
  ASSERT_TRUE(shuttle.run(std::move(opening)));

  EXPECT_EQ(e.a.counters().mod_completed, 1u);
  EXPECT_EQ(e.b.counters().mod_served, 1u);
  EXPECT_EQ(sim_a.db().size(), wire_a.db().size());
  EXPECT_EQ(sim_b.db().size(), wire_b.db().size());
  for (const moderation::ModerationId id : ids) {
    EXPECT_EQ(sim_a.db().contains(id), wire_a.db().contains(id));
    EXPECT_EQ(sim_b.db().contains(id), wire_b.db().contains(id));
  }
}

TEST(NetEngine, RepeatedEncountersStayBitIdentical) {
  // Longer horizon: interleaved casts and encounters in both directions.
  // Any drift between the paths compounds — equality after 20 rounds is a
  // strong bit-identity check.
  Twin a = make_twin(1, 201);
  Twin b = make_twin(2, 202);
  EnginePair e(a, b);
  // b initiates on its own engine pair orientation: a fresh pair with b as
  // channel-0 initiator models b dialing a.
  for (int round = 0; round < 20; ++round) {
    const Time now = 1000 + 100 * round;
    if (round % 3 == 0) {
      a.cast(static_cast<ModeratorId>(10 + round),
             (round % 2 == 0) ? Opinion::kPositive : Opinion::kNegative,
             now - 10);
    }
    if (round % 4 == 0) {
      b.cast(static_cast<ModeratorId>(40 + round), Opinion::kPositive,
             now - 5);
    }
    vote::vote_encounter(*a.sim, *b.sim, now);
    wire_encounter(e.a, e.b, now);
    expect_twins_match(a, b);
  }
  EXPECT_EQ(e.a.counters().encounters_completed, 20u);
  EXPECT_EQ(e.b.counters().encounters_served, 20u);
  EXPECT_GT(e.a.counters().open_digest, 0u);
}

// ---- protocol-error handling -----------------------------------------------

TEST(NetEngine, OutOfStateFramesAreFatal) {
  Twin a = make_twin(1, 211);
  Twin b = make_twin(2, 212);
  EnginePair e(a, b);

  // A delta-request with no encounter open is a protocol error.
  Frame f;
  f.type = FrameType::kVoteDeltaRequest;
  f.channel = 0;
  f.payload = encode_delta_request({0});
  std::vector<Frame> out;
  EXPECT_FALSE(e.b.on_frame(f, out));
  EXPECT_EQ(e.b.counters().protocol_errors, 1u);
}

TEST(NetEngine, UndecodablePayloadIsFatal) {
  Twin a = make_twin(1, 221);
  Twin b = make_twin(2, 222);
  EnginePair e(a, b);

  Frame f;
  f.type = FrameType::kEncounterBegin;
  f.channel = 0;
  f.payload = {0xFF};  // not a valid ENC_BEGIN
  std::vector<Frame> out;
  EXPECT_FALSE(e.b.on_frame(f, out));
  EXPECT_EQ(e.b.counters().protocol_errors, 1u);
}

TEST(NetEngine, BeginWhileBusyRefusesLocally) {
  Twin a = make_twin(1, 231);
  Twin b = make_twin(2, 232);
  a.cast(10, Opinion::kPositive, 50);
  EnginePair e(a, b);

  std::vector<Frame> out;
  ASSERT_TRUE(e.a.begin_vote_encounter(100, out));
  EXPECT_FALSE(e.a.idle());
  std::vector<Frame> out2;
  EXPECT_FALSE(e.a.begin_vote_encounter(100, out2));  // still in flight
  EXPECT_TRUE(out2.empty());
}

}  // namespace
}  // namespace tribvote::net
