// Vote-history cache + digest-first delta gossip (perf PR tentpole).
//
// Covers: vote-list version semantics, cache hit/invalidation/off, the
// partial-selection rewrite against a reference full sort, the digest
// codec, delta-vs-full semantic equivalence, deterministic counterpart
// eviction, the memoized BallotBox tally against an O(n) recompute, and
// wire-fault behaviour of every gossip frame (damaged digest → full
// fallback, damaged delta/full → wholesale rejection, nothing merged).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "crypto/schnorr.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"
#include "vote/ballot_box.hpp"
#include "vote/gossip.hpp"
#include "vote/vote_list.hpp"

namespace tribvote::vote {
namespace {

using util::PayloadFault;

// ---- LocalVoteList::version ------------------------------------------------

TEST(VoteListVersion, BumpsOnContentChangeOnly) {
  LocalVoteList list;
  EXPECT_EQ(list.version(), 0u);
  list.cast(1, Opinion::kPositive, 10);
  EXPECT_EQ(list.version(), 1u);
  list.cast(1, Opinion::kPositive, 10);  // identical re-cast: no-op
  EXPECT_EQ(list.version(), 1u);
  list.cast(1, Opinion::kPositive, 20);  // fresher timestamp: content change
  EXPECT_EQ(list.version(), 2u);
  list.cast(1, Opinion::kNegative, 20);  // opinion flip: content change
  EXPECT_EQ(list.version(), 3u);
  list.cast(2, Opinion::kPositive, 20);  // new moderator
  EXPECT_EQ(list.version(), 4u);
}

// ---- partial selection vs reference full sort ------------------------------

/// The pre-optimization implementation, verbatim: full pointer sort, then
/// recency prefix + sampled tail.
std::vector<VoteEntry> reference_select(const LocalVoteList& list,
                                        std::size_t max_votes, util::Rng& rng,
                                        SelectionPolicy policy) {
  const auto& entries = list.entries();
  std::vector<VoteEntry> result;
  if (entries.empty() || max_votes == 0) return result;
  if (entries.size() <= max_votes) return entries;
  if (policy == SelectionPolicy::kRandomOnly) {
    for (std::size_t p : rng.sample_indices(entries.size(), max_votes)) {
      result.push_back(entries[p]);
    }
    return result;
  }
  std::vector<const VoteEntry*> sorted;
  for (const auto& e : entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const VoteEntry* a, const VoteEntry* b) {
              if (a->cast_at != b->cast_at) return a->cast_at > b->cast_at;
              return a->moderator < b->moderator;
            });
  const std::size_t recent = policy == SelectionPolicy::kRecentOnly
                                 ? max_votes
                                 : (max_votes + 1) / 2;
  for (std::size_t i = 0; i < recent; ++i) result.push_back(*sorted[i]);
  const std::size_t rest = sorted.size() - recent;
  const std::size_t random_take = std::min(max_votes - recent, rest);
  for (std::size_t p : rng.sample_indices(rest, random_take)) {
    result.push_back(*sorted[recent + p]);
  }
  return result;
}

bool same_selection(const std::vector<VoteEntry>& a,
                    const std::vector<VoteEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].moderator != b[i].moderator || a[i].opinion != b[i].opinion ||
        a[i].cast_at != b[i].cast_at) {
      return false;
    }
  }
  return true;
}

TEST(PartialSelection, ByteIdenticalToFullSortAcrossPoliciesAndSeeds) {
  // Duplicate cast times on purpose: the comparator's moderator tiebreak
  // must keep the partial selection's draw order identical to the sort's.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2009ULL}) {
    util::Rng build(seed);
    LocalVoteList list;
    for (ModeratorId m = 0; m < 200; ++m) {
      list.cast(m,
                build.next_bool(0.5) ? Opinion::kPositive
                                     : Opinion::kNegative,
                static_cast<Time>(build.next_below(40)));
    }
    for (const auto policy :
         {SelectionPolicy::kRecencyRandom, SelectionPolicy::kRecentOnly,
          SelectionPolicy::kRandomOnly}) {
      for (const std::size_t max_votes : {1u, 2u, 13u, 50u, 199u, 200u}) {
        util::Rng a(seed * 31 + max_votes);
        util::Rng b = a;
        const auto fast = list.select_for_message(max_votes, a, policy);
        const auto slow = reference_select(list, max_votes, b, policy);
        EXPECT_TRUE(same_selection(fast, slow))
            << "policy=" << static_cast<int>(policy)
            << " max_votes=" << max_votes << " seed=" << seed;
        // Both consumed the generator identically.
        EXPECT_EQ(a(), b());
      }
    }
  }
}

// ---- memoized tally ---------------------------------------------------------

TEST(IncrementalTally, MatchesRecomputeUnderMergeEvictPurge) {
  util::Rng rng(5);
  BallotBox box(40);  // small capacity: eviction fires constantly
  for (int step = 0; step < 500; ++step) {
    const PeerId voter = static_cast<PeerId>(rng.next_below(12));
    std::vector<VoteEntry> votes;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < n; ++i) {
      votes.push_back(VoteEntry{static_cast<ModeratorId>(rng.next_below(15)),
                                rng.next_bool(0.5) ? Opinion::kPositive
                                                   : Opinion::kNegative,
                                static_cast<Time>(step)});
    }
    box.merge(voter, votes, static_cast<Time>(step));
    if (step % 97 == 96) {
      box.purge_voters(
          [&](PeerId v) { return v % 3 != static_cast<PeerId>(step % 3); });
    }
    const auto expected = box.recompute_tally();
    const auto& incremental = box.tally();
    ASSERT_EQ(incremental.size(), expected.size()) << "step " << step;
    for (const auto& [m, t] : expected) {
      const auto it = incremental.find(m);
      ASSERT_NE(it, incremental.end()) << "step " << step;
      EXPECT_EQ(it->second.positive, t.positive) << "step " << step;
      EXPECT_EQ(it->second.negative, t.negative) << "step " << step;
    }
  }
}

// ---- agent fixtures --------------------------------------------------------

struct Peer {
  crypto::KeyPair keys;
  std::unique_ptr<VoteAgent> agent;
};

Peer make_peer(PeerId id, VoteConfig config, std::uint64_t seed,
               bool experienced = true) {
  Peer p;
  util::Rng krng(seed);
  p.keys = crypto::generate_keypair(krng);
  p.agent = std::make_unique<VoteAgent>(
      id, p.keys, config, [experienced](PeerId) { return experienced; },
      util::Rng(seed * 7919 + 1));
  return p;
}

// ---- vote-history cache ----------------------------------------------------

TEST(VoteHistoryCache, SignsOncePerVersionAndInvalidatesOnCast) {
  VoteConfig config;
  Peer p = make_peer(1, config, 11);
  p.agent->cast_vote(3, Opinion::kPositive, 10);
  const auto m1 = p.agent->outgoing_votes(20);
  const auto m2 = p.agent->outgoing_votes(30);
  const auto m3 = p.agent->outgoing_votes(40);
  EXPECT_EQ(p.agent->gossip_stats().builds, 3u);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 1u);
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 2u);
  EXPECT_EQ(m1.digest(), m2.digest());
  EXPECT_EQ(m2.signature, m3.signature);

  p.agent->cast_vote(4, Opinion::kNegative, 50);  // content change
  const auto m4 = p.agent->outgoing_votes(60);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
  EXPECT_EQ(m4.votes.size(), 2u);
  // The cached message stays verifiable.
  EXPECT_TRUE(crypto::verify(p.keys.pub, m4.digest(), m4.signature));
}

TEST(VoteHistoryCache, OffMeansEveryCallSigns) {
  VoteConfig config;
  config.gossip_cache = false;
  Peer p = make_peer(1, config, 12);
  p.agent->cast_vote(3, Opinion::kPositive, 10);
  (void)p.agent->outgoing_votes(20);
  (void)p.agent->outgoing_votes(30);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 0u);
}

TEST(VoteHistoryCache, BypassedWhenSelectionIsStochastic) {
  VoteConfig config;
  config.max_votes_per_message = 5;  // 10 entries below → random tail draw
  Peer p = make_peer(1, config, 13);
  for (ModeratorId m = 0; m < 10; ++m) {
    p.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m));
  }
  (void)p.agent->outgoing_votes(20);
  (void)p.agent->outgoing_votes(30);
  // No memoization: repeated calls re-draw the random tail and re-sign.
  EXPECT_EQ(p.agent->gossip_stats().cache_hits, 0u);
  EXPECT_EQ(p.agent->gossip_stats().signatures, 2u);
}

// ---- digest codec ----------------------------------------------------------

TEST(DigestCodec, RoundTripAndDamageDetection) {
  VoteConfig config;
  Peer p = make_peer(1, config, 14);
  for (ModeratorId m = 0; m < 8; ++m) {
    p.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m + 1));
  }
  const auto full = p.agent->outgoing_votes(10);
  VoteDigestMessage digest = make_digest(full);
  EXPECT_TRUE(digest_intact(digest));
  ASSERT_EQ(digest.entries.size(), full.votes.size());
  for (std::size_t i = 0; i < full.votes.size(); ++i) {
    EXPECT_EQ(digest.entries[i].moderator, full.votes[i].moderator);
    EXPECT_EQ(digest.entries[i].check, entry_check(full.votes[i]));
  }

  VoteDigestMessage corrupted = digest;
  damage_digest(corrupted, PayloadFault::kCorrupted, 9);
  EXPECT_FALSE(digest_intact(corrupted));
  VoteDigestMessage truncated = digest;
  damage_digest(truncated, PayloadFault::kTruncated, 9);
  EXPECT_FALSE(digest_intact(truncated));
  // The digest is strictly smaller than the payload it stands in for.
  EXPECT_LT(wire_size(digest), wire_size(full));
}

// ---- delta exchange: semantic equivalence ----------------------------------

/// Drive `rounds` mutual exchanges between a and b via gossip_send.
void run_exchanges(Peer& a, Peer& b, int rounds, Time start) {
  for (int r = 0; r < rounds; ++r) {
    const Time now = start + static_cast<Time>(r) * 10;
    (void)gossip_send(*a.agent, *b.agent, now);
    (void)gossip_send(*b.agent, *a.agent, now);
  }
}

TEST(DeltaExchange, StateIdenticalToFullExchangeAndCheaper) {
  VoteConfig on;   // gossip_cache defaults on
  VoteConfig off;
  off.gossip_cache = false;
  // Two mirrored pairs with identical seeds; only the knob differs.
  Peer a_on = make_peer(1, on, 21), b_on = make_peer(2, on, 22);
  Peer a_off = make_peer(1, off, 21), b_off = make_peer(2, off, 22);
  for (Peer* p : {&a_on, &a_off}) {
    p->agent->cast_vote(5, Opinion::kPositive, 1);
    p->agent->cast_vote(6, Opinion::kNegative, 2);
  }
  for (Peer* p : {&b_on, &b_off}) {
    p->agent->cast_vote(5, Opinion::kNegative, 3);
  }
  run_exchanges(a_on, b_on, 4, 100);
  run_exchanges(a_off, b_off, 4, 100);

  // Bit-identical ballot boxes, both directions.
  for (const auto& [pair_on, pair_off] :
       {std::pair{&a_on, &a_off}, std::pair{&b_on, &b_off}}) {
    const auto& t_on = pair_on->agent->ballot_box().tally();
    const auto t_off = pair_off->agent->ballot_box().recompute_tally();
    ASSERT_EQ(t_on.size(), t_off.size());
    for (const auto& [m, t] : t_off) {
      const auto it = t_on.find(m);
      ASSERT_NE(it, t_on.end());
      EXPECT_EQ(it->second.positive, t.positive);
      EXPECT_EQ(it->second.negative, t.negative);
    }
  }
  // ...and the cached pair did strictly less signing.
  EXPECT_LT(a_on.agent->gossip_stats().signatures,
            a_off.agent->gossip_stats().signatures);
  EXPECT_GT(a_on.agent->gossip_stats().cache_hits, 0u);
}

TEST(DeltaExchange, SteadyStateShipsDigestOnlyAndFewerBytes) {
  VoteConfig config;
  Peer a = make_peer(1, config, 31), b = make_peer(2, config, 32);
  // A digest leg pays fixed overhead (checksum + empty request frame), so
  // it only undercuts the full list past the break-even size of ~7
  // entries; use a realistic list, not a single vote.
  for (ModeratorId m = 0; m < 10; ++m) {
    a.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m + 1));
  }
  b.agent->cast_vote(99, Opinion::kNegative, 2);

  const auto first = gossip_send(*a.agent, *b.agent, 10);
  EXPECT_FALSE(first.delta);  // unknown counterpart → full message
  (void)gossip_send(*b.agent, *a.agent, 10);

  const auto second = gossip_send(*a.agent, *b.agent, 20);
  EXPECT_TRUE(second.delta);
  EXPECT_EQ(second.result, ReceiveResult::kAccepted);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.signatures, 0u);  // digest covered everything
  EXPECT_LT(second.bytes, first.bytes);
}

TEST(DeltaExchange, ShipsOnlyMissingEntriesAfterNewCast) {
  VoteConfig config;
  Peer a = make_peer(1, config, 33), b = make_peer(2, config, 34);
  for (ModeratorId m = 0; m < 40; ++m) {
    a.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m + 1));
  }
  (void)gossip_send(*a.agent, *b.agent, 50);
  (void)gossip_send(*b.agent, *a.agent, 50);
  a.agent->cast_vote(99, Opinion::kNegative, 60);  // one new vote

  const auto leg = gossip_send(*a.agent, *b.agent, 70);
  EXPECT_TRUE(leg.delta);
  EXPECT_EQ(leg.result, ReceiveResult::kAccepted);
  EXPECT_EQ(leg.signatures, 2u);  // new message + one-entry delta
  // Digest (41 entries) + request + 1-entry delta < 41-entry full list.
  // (The delta path's fixed overhead means it needs a list comfortably
  // past break-even — n > 20 + 5·missing — to pay off; 41 entries is the
  // fig6 regime, where the old protocol would re-ship all 41.)
  EXPECT_LT(leg.bytes, kFrameHeaderBytes + kSignatureBytes +
                           41 * kVoteEntryBytes);
  const auto& tally = b.agent->ballot_box().tally();
  const auto it = tally.find(99);
  ASSERT_NE(it, tally.end());
  EXPECT_EQ(it->second.negative, 1u);
}

// ---- counterpart memory ----------------------------------------------------

TEST(CounterpartMemory, EvictsLeastRecentDeterministically) {
  CounterpartMemory mem(3);
  mem.note(1);
  mem.note(2);
  mem.note(3);
  mem.note(1);  // refresh 1 → eviction order is now 2, 3, 1
  mem.note(4);  // evicts 2
  EXPECT_FALSE(mem.known(2));
  EXPECT_TRUE(mem.known(1));
  EXPECT_TRUE(mem.known(3));
  EXPECT_TRUE(mem.known(4));
  mem.note(5);  // evicts 3
  EXPECT_FALSE(mem.known(3));
  EXPECT_EQ(mem.size(), 3u);
}

TEST(CounterpartMemory, ZeroCapacityNeverKnows) {
  CounterpartMemory mem(0);
  mem.note(1);
  EXPECT_FALSE(mem.known(1));
  EXPECT_EQ(mem.size(), 0u);
}

/// The full-scan memory the recency index replaced: evict the minimum
/// stamp by walking every entry. Its digest is CounterpartMemory's formula.
class ScanMemory {
 public:
  explicit ScanMemory(std::size_t capacity) : capacity_(capacity) {}

  void note(PeerId peer) {
    if (capacity_ == 0) return;
    if (const auto it = peers_.find(peer); it != peers_.end()) {
      it->second = next_stamp_++;
      return;
    }
    if (peers_.size() >= capacity_) {
      auto victim = peers_.begin();
      for (auto p = peers_.begin(); p != peers_.end(); ++p) {
        if (p->second < victim->second) victim = p;
      }
      peers_.erase(victim);
    }
    peers_.emplace(peer, next_stamp_++);
  }
  [[nodiscard]] bool known(PeerId peer) const { return peers_.contains(peer); }
  [[nodiscard]] std::size_t size() const { return peers_.size(); }
  [[nodiscard]] std::uint64_t digest() const {
    std::vector<std::pair<PeerId, std::uint64_t>> items(peers_.begin(),
                                                        peers_.end());
    std::sort(items.begin(), items.end());
    std::uint64_t h =
        util::digest_fields({capacity_, next_stamp_, items.size()});
    for (const auto& [peer, stamp] : items) {
      h = util::hash_combine(h, util::digest_fields({peer, stamp}));
    }
    return h;
  }

 private:
  std::size_t capacity_;
  std::uint64_t next_stamp_ = 0;
  std::unordered_map<PeerId, std::uint64_t> peers_;
};

class CounterpartMemoryReference
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CounterpartMemoryReference, IndexedEvictionMatchesScan) {
  util::Rng rng(GetParam());
  for (const std::size_t capacity : {1u, 2u, 7u, 32u}) {
    CounterpartMemory mem(capacity);
    ScanMemory ref(capacity);
    // A skewed id draw: a hot set refreshes often, the tail forces
    // evictions of every age.
    for (int op = 0; op < 5000; ++op) {
      const auto peer = static_cast<PeerId>(
          rng.next_bool(0.6) ? rng.next_below(capacity + 2)
                             : rng.next_below(4 * capacity + 10));
      mem.note(peer);
      ref.note(peer);
      ASSERT_EQ(mem.size(), ref.size()) << "op " << op;
      if (op % 50 == 0) {
        for (PeerId p = 0; p < 4 * capacity + 10; ++p) {
          ASSERT_EQ(mem.known(p), ref.known(p)) << "op " << op << " peer " << p;
        }
        ASSERT_EQ(mem.digest(), ref.digest()) << "op " << op;
      }
    }
    EXPECT_EQ(mem.digest(), ref.digest()) << "capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterpartMemoryReference,
                         ::testing::Values(1u, 2u, 3u));

// ---- wire faults over the gossip frames ------------------------------------

std::size_t box_size(const Peer& p) { return p.agent->ballot_box().size(); }

TEST(GossipFaults, DamagedFullMessageRejectsWholesale) {
  VoteConfig config;
  Peer a = make_peer(1, config, 41), b = make_peer(2, config, 42);
  a.agent->cast_vote(5, Opinion::kPositive, 1);
  for (const auto fault :
       {PayloadFault::kTruncated, PayloadFault::kCorrupted}) {
    const auto leg = gossip_send(*a.agent, *b.agent, 10, fault, 7);
    EXPECT_EQ(leg.result, ReceiveResult::kBadSignature);
    EXPECT_EQ(box_size(b), 0u);  // nothing merged, box not poisoned
  }
}

TEST(GossipFaults, DamagedDigestFallsBackToFullAndStillRejects) {
  VoteConfig config;
  Peer a = make_peer(1, config, 43), b = make_peer(2, config, 44);
  a.agent->cast_vote(5, Opinion::kPositive, 1);
  (void)gossip_send(*a.agent, *b.agent, 10);  // prime counterpart memory
  const std::size_t before = box_size(b);

  // salt with bit 6 clear routes the damage to the digest frame.
  const std::uint64_t digest_salt = 0x0;
  const auto leg = gossip_send(*a.agent, *b.agent, 20,
                               PayloadFault::kCorrupted, digest_salt);
  EXPECT_TRUE(leg.fallback_full);
  EXPECT_FALSE(leg.delta);
  EXPECT_EQ(leg.result, ReceiveResult::kBadSignature);
  EXPECT_EQ(box_size(b), before);
}

TEST(GossipFaults, DamagedDeltaRejectsEvenWhenNothingWasMissing) {
  VoteConfig config;
  Peer a = make_peer(1, config, 45), b = make_peer(2, config, 46);
  a.agent->cast_vote(5, Opinion::kPositive, 1);
  (void)gossip_send(*a.agent, *b.agent, 10);
  const std::size_t before = box_size(b);

  // salt with bit 6 set routes the damage to the delta frame; the sender
  // must ship a (damaged) delta even though the digest covers everything,
  // so the leg rejects exactly like a damaged full exchange would.
  const std::uint64_t delta_salt = 0x40;
  for (const auto fault :
       {PayloadFault::kTruncated, PayloadFault::kCorrupted}) {
    const auto leg = gossip_send(*a.agent, *b.agent, 20, fault, delta_salt);
    EXPECT_TRUE(leg.delta);
    EXPECT_EQ(leg.result, ReceiveResult::kBadSignature);
    EXPECT_EQ(box_size(b), before);
  }
}

TEST(GossipFaults, ForgedDeltaBindingRejects) {
  VoteConfig config;
  Peer a = make_peer(1, config, 47), b = make_peer(2, config, 48);
  for (ModeratorId m = 0; m < 4; ++m) {
    a.agent->cast_vote(m, Opinion::kPositive, static_cast<Time>(m + 1));
  }
  const auto full = a.agent->outgoing_votes(10);
  const VoteDigestMessage digest = make_digest(full);
  const auto missing = b.agent->scan_digest(digest);
  ASSERT_EQ(missing.size(), full.votes.size());
  VoteDeltaMessage delta = a.agent->build_delta(full, missing);

  // Tamper with one carried vote: the per-entry pin to the digest line (or
  // failing that, the signature) must reject the whole frame.
  VoteDeltaMessage tampered = delta;
  tampered.votes[1].opinion = Opinion::kNegative;
  EXPECT_EQ(b.agent->receive_delta(digest, &tampered, 20),
            ReceiveResult::kBadSignature);
  // Wrong binding checksum.
  VoteDeltaMessage rebound = delta;
  rebound.bound_checksum ^= 1;
  EXPECT_EQ(b.agent->receive_delta(digest, &rebound, 20),
            ReceiveResult::kBadSignature);
  // Missing entries but no delta frame at all.
  EXPECT_EQ(b.agent->receive_delta(digest, nullptr, 20),
            ReceiveResult::kBadSignature);
  EXPECT_EQ(box_size(b), 0u);
  // The untampered frame is accepted.
  EXPECT_EQ(b.agent->receive_delta(digest, &delta, 20),
            ReceiveResult::kAccepted);
  EXPECT_EQ(box_size(b), full.votes.size());
}

}  // namespace
}  // namespace tribvote::vote
