#include <gtest/gtest.h>

#include <map>

#include "moderation/db.hpp"
#include "moderation/moderation.hpp"
#include "moderation/moderationcast.hpp"

namespace tribvote::moderation {
namespace {

crypto::KeyPair make_keys(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::generate_keypair(rng);
}

TEST(Moderation, SignAndVerify) {
  util::Rng rng(1);
  const crypto::KeyPair keys = make_keys(1);
  const Moderation m =
      make_moderation(3, keys, 0xabc, "great movie", 100, rng);
  EXPECT_TRUE(verify_moderation(m));
  EXPECT_EQ(m.moderator, 3u);
  EXPECT_EQ(m.created, 100);
}

TEST(Moderation, TamperingBreaksSignature) {
  util::Rng rng(1);
  const crypto::KeyPair keys = make_keys(1);
  Moderation m = make_moderation(3, keys, 0xabc, "great movie", 100, rng);
  Moderation altered = m;
  altered.description = "great movie + malware";
  EXPECT_FALSE(verify_moderation(altered));
  altered = m;
  altered.infohash ^= 1;
  EXPECT_FALSE(verify_moderation(altered));
  altered = m;
  altered.moderator = 4;  // re-binding to another moderator fails
  EXPECT_FALSE(verify_moderation(altered));
}

TEST(Moderation, DigestDistinguishesItems) {
  util::Rng rng(1);
  const crypto::KeyPair keys = make_keys(1);
  const Moderation a = make_moderation(1, keys, 0x1, "x", 10, rng);
  const Moderation b = make_moderation(1, keys, 0x2, "x", 10, rng);
  const Moderation c = make_moderation(1, keys, 0x1, "y", 10, rng);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

class DbTest : public ::testing::Test {
 protected:
  DbTest()
      : keys_(make_keys(7)),
        db_(0, DbConfig{},
            [this](ModeratorId m) {
              const auto it = opinions_.find(m);
              return it == opinions_.end() ? Opinion::kNone : it->second;
            }) {}

  Moderation make(ModeratorId moderator, std::uint64_t infohash,
                  Time created = 0) {
    return make_moderation(moderator, keys_, infohash, "desc", created,
                           rng_);
  }

  util::Rng rng_{9};
  crypto::KeyPair keys_;
  std::map<ModeratorId, Opinion> opinions_;
  ModerationDb db_;
};

TEST_F(DbTest, MergeInsertsAndDeduplicates) {
  const Moderation m = make(1, 0xa);
  EXPECT_EQ(db_.merge(m, 10), ModerationDb::MergeResult::kInserted);
  EXPECT_EQ(db_.merge(m, 20), ModerationDb::MergeResult::kDuplicate);
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_TRUE(db_.contains(m.digest()));
}

TEST_F(DbTest, MergeRejectsBadSignature) {
  Moderation m = make(1, 0xa);
  m.description = "tampered";
  EXPECT_EQ(db_.merge(m, 10), ModerationDb::MergeResult::kBadSignature);
  EXPECT_EQ(db_.size(), 0u);
}

TEST_F(DbTest, MergeRefusesDisapprovedModerator) {
  opinions_[5] = Opinion::kNegative;
  EXPECT_EQ(db_.merge(make(5, 0xa), 10),
            ModerationDb::MergeResult::kDisapprovedModerator);
  EXPECT_EQ(db_.size(), 0u);
}

TEST_F(DbTest, CapacityEvictsOldestReceived) {
  ModerationDb small(0, DbConfig{3}, [](ModeratorId) {
    return Opinion::kPositive;
  });
  const Moderation a = make(1, 0x1), b = make(1, 0x2), c = make(1, 0x3),
                   d = make(1, 0x4);
  (void)small.merge(a, 10);
  (void)small.merge(b, 20);
  (void)small.merge(c, 30);
  EXPECT_EQ(small.merge(d, 40), ModerationDb::MergeResult::kEvictedOthers);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_FALSE(small.contains(a.digest()));  // oldest gone
  EXPECT_TRUE(small.contains(d.digest()));
}

TEST_F(DbTest, PurgeModeratorRemovesAllTheirItems) {
  (void)db_.merge(make(1, 0x1), 10);
  (void)db_.merge(make(1, 0x2), 10);
  (void)db_.merge(make(2, 0x3), 10);
  db_.purge_moderator(1);
  EXPECT_EQ(db_.size(), 1u);
  EXPECT_EQ(db_.count_from(1), 0u);
  EXPECT_EQ(db_.count_from(2), 1u);
}

TEST_F(DbTest, ExtractForwardsOnlyApprovedAndOwn) {
  opinions_[1] = Opinion::kPositive;   // approved
  // moderator 2: no vote; moderator 0 is the owner itself.
  (void)db_.merge(make(1, 0x1), 10);
  (void)db_.merge(make(2, 0x2), 10);
  (void)db_.merge(make(0, 0x3), 10);
  const auto out = db_.extract(10, rng_);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& m : out) {
    EXPECT_TRUE(m.moderator == 1 || m.moderator == 0);
  }
}

TEST_F(DbTest, ExtractHonoursCapAndPrefersRecent) {
  opinions_[1] = Opinion::kPositive;
  for (std::uint64_t i = 0; i < 20; ++i) {
    (void)db_.merge(make(1, i), static_cast<Time>(i * 10));
  }
  const auto out = db_.extract(6, rng_);
  ASSERT_EQ(out.size(), 6u);
  // The recency half (3 items) must be the 3 newest receives (170,180,190
  // -> infohashes 17,18,19).
  std::set<std::uint64_t> hashes;
  for (const auto& m : out) hashes.insert(m.infohash);
  EXPECT_TRUE(hashes.contains(19));
  EXPECT_TRUE(hashes.contains(18));
  EXPECT_TRUE(hashes.contains(17));
}

TEST_F(DbTest, ExtractRandomHalfVaries) {
  opinions_[1] = Opinion::kPositive;
  for (std::uint64_t i = 0; i < 30; ++i) {
    (void)db_.merge(make(1, i), static_cast<Time>(i));
  }
  std::set<std::uint64_t> seen;
  for (int trial = 0; trial < 20; ++trial) {
    for (const auto& m : db_.extract(10, rng_)) seen.insert(m.infohash);
  }
  // Over 20 extractions the random half should have covered far more than
  // one message's worth of items.
  EXPECT_GT(seen.size(), 15u);
}

TEST_F(DbTest, KnownModeratorsSortedUnique) {
  (void)db_.merge(make(5, 0x1), 1);
  (void)db_.merge(make(2, 0x2), 1);
  (void)db_.merge(make(5, 0x3), 1);
  EXPECT_EQ(db_.known_moderators(), (std::vector<ModeratorId>{2, 5}));
}

class CastTest : public ::testing::Test {
 protected:
  struct Peer {
    explicit Peer(PeerId id)
        : keys(make_keys(100 + id)),
          agent(id, keys, ModerationCastConfig{},
                [this](ModeratorId m) {
                  const auto it = opinions.find(m);
                  return it == opinions.end() ? Opinion::kNone : it->second;
                },
                util::Rng(200 + id)) {}
    crypto::KeyPair keys;
    std::map<ModeratorId, Opinion> opinions;
    ModerationCastAgent agent;
  };
};

TEST_F(CastTest, PublishStoresOwnModeration) {
  Peer alice(0);
  const Moderation& m = alice.agent.publish(0xfeed, "my upload", 5);
  EXPECT_TRUE(verify_moderation(m));
  EXPECT_EQ(alice.agent.db().count_from(0), 1u);
}

TEST_F(CastTest, ExchangeSpreadsOwnModerations) {
  Peer alice(0), bob(1);
  alice.agent.publish(0xfeed, "my upload", 5);
  exchange(alice.agent, bob.agent, 10);
  EXPECT_EQ(bob.agent.db().count_from(0), 1u);
}

TEST_F(CastTest, UnapprovedModerationsDoNotRelay) {
  Peer alice(0), bob(1), carol(2);
  alice.agent.publish(0xfeed, "content", 5);
  exchange(alice.agent, bob.agent, 10);   // bob has it (direct contact)
  exchange(bob.agent, carol.agent, 20);   // bob does NOT forward: no vote
  EXPECT_EQ(carol.agent.db().count_from(0), 0u);
}

TEST_F(CastTest, ApprovalEnablesRelay) {
  Peer alice(0), bob(1), carol(2);
  alice.agent.publish(0xfeed, "content", 5);
  exchange(alice.agent, bob.agent, 10);
  bob.opinions[0] = Opinion::kPositive;  // bob approves moderator 0
  exchange(bob.agent, carol.agent, 20);
  EXPECT_EQ(carol.agent.db().count_from(0), 1u);
}

TEST_F(CastTest, DisapprovalPurgesAndBlocks) {
  Peer alice(0), bob(1);
  alice.agent.publish(0xfeed, "content", 5);
  exchange(alice.agent, bob.agent, 10);
  ASSERT_EQ(bob.agent.db().count_from(0), 1u);
  bob.opinions[0] = Opinion::kNegative;
  bob.agent.handle_disapproval(0);
  EXPECT_EQ(bob.agent.db().count_from(0), 0u);
  // Further direct contact cannot re-insert.
  exchange(alice.agent, bob.agent, 30);
  EXPECT_EQ(bob.agent.db().count_from(0), 0u);
}

TEST_F(CastTest, OnNewModerationFiresOncePerItem) {
  Peer alice(0), bob(1);
  int fires = 0;
  bob.agent.on_new_moderation = [&](const Moderation&) { ++fires; };
  alice.agent.publish(0xfeed, "content", 5);
  exchange(alice.agent, bob.agent, 10);
  exchange(alice.agent, bob.agent, 20);  // duplicate: no second fire
  EXPECT_EQ(fires, 1);
}

TEST_F(CastTest, CorruptedItemIsRejectedItemWise) {
  // In-flight bit damage as the fault plane deals it: each moderation
  // carries its own signature, so one damaged item is dropped alone and
  // the rest of the batch still merges.
  Peer alice(0), bob(1);
  alice.agent.publish(0x1, "first", 5);
  alice.agent.publish(0x2, "second", 6);
  std::vector<Moderation> batch = alice.agent.outgoing();
  ASSERT_EQ(batch.size(), 2u);
  batch[0].signature.s ^= 1ull << 9;
  const auto rs = bob.agent.receive(batch, 10);
  EXPECT_EQ(rs.bad_signature, 1u);
  EXPECT_EQ(rs.inserted, 1u);
  EXPECT_EQ(bob.agent.db().count_from(0), 1u);
  // The db is not poisoned: the pristine item still merges later.
  const auto again = bob.agent.receive(alice.agent.outgoing(), 20);
  EXPECT_EQ(again.inserted, 1u);
  EXPECT_EQ(bob.agent.db().count_from(0), 2u);
}

TEST_F(CastTest, TruncatedBatchMergesTheRemainder) {
  Peer alice(0), bob(1);
  alice.agent.publish(0x1, "first", 5);
  alice.agent.publish(0x2, "second", 6);
  std::vector<Moderation> batch = alice.agent.outgoing();
  ASSERT_EQ(batch.size(), 2u);
  batch.resize(1);  // tail lost in flight
  const auto rs = bob.agent.receive(batch, 10);
  EXPECT_EQ(rs.bad_signature, 0u);
  EXPECT_EQ(rs.inserted, 1u);
}

TEST_F(CastTest, UndeliveredItemsAreReofferedFirst) {
  Peer alice(0);
  alice.agent.publish(0x1, "lost in transit", 5);
  const std::vector<Moderation> push = alice.agent.outgoing();
  ASSERT_EQ(push.size(), 1u);
  EXPECT_EQ(alice.agent.note_undelivered(push), 1u);
  EXPECT_EQ(alice.agent.pending_reoffers(), 1u);
  // The next push leads with the undelivered item and clears the queue.
  const std::vector<Moderation> retry = alice.agent.outgoing();
  ASSERT_FALSE(retry.empty());
  EXPECT_EQ(retry.front().infohash, 0x1u);
  EXPECT_EQ(alice.agent.pending_reoffers(), 0u);
}

TEST_F(CastTest, ReofferedDuplicatesDedupOnMerge) {
  Peer alice(0), bob(1);
  alice.agent.publish(0x1, "at least once", 5);
  const std::vector<Moderation> push = alice.agent.outgoing();
  (void)bob.agent.receive(push, 10);  // delivered, but alice never learns
  (void)alice.agent.note_undelivered(push);
  const auto rs = bob.agent.receive(alice.agent.outgoing(), 20);
  EXPECT_EQ(rs.inserted, 0u);
  EXPECT_EQ(rs.duplicates, 1u);
  EXPECT_EQ(bob.agent.db().count_from(0), 1u);
}

TEST_F(CastTest, ExchangeIsBidirectional) {
  Peer alice(0), bob(1);
  alice.agent.publish(0x1, "from alice", 5);
  bob.agent.publish(0x2, "from bob", 5);
  exchange(alice.agent, bob.agent, 10);
  EXPECT_EQ(alice.agent.db().count_from(1), 1u);
  EXPECT_EQ(bob.agent.db().count_from(0), 1u);
}

// ---- exchange under a fault verdict -----------------------------------------

TEST(DamageBatch, TruncationKeepsTheHeadAndCorruptionHitsOneItem) {
  util::Rng rng(3);
  const crypto::KeyPair keys = make_keys(1);
  std::vector<Moderation> batch;
  for (std::uint64_t h = 1; h <= 3; ++h) {
    batch.push_back(make_moderation(1, keys, h, "x", 10, rng));
  }
  std::vector<Moderation> cut = batch;
  damage_batch(cut, util::PayloadFault::kTruncated, 0);
  ASSERT_EQ(cut.size(), 2u);  // half, rounded up
  EXPECT_EQ(cut[1].infohash, 2u);
  std::vector<Moderation> hit = batch;
  damage_batch(hit, util::PayloadFault::kCorrupted, 4);  // item 4 % 3 = 1
  EXPECT_TRUE(verify_moderation(hit[0]));
  EXPECT_FALSE(verify_moderation(hit[1]));
  EXPECT_TRUE(verify_moderation(hit[2]));
  std::vector<Moderation> none = batch;
  damage_batch(none, util::PayloadFault::kNone, 4);
  EXPECT_TRUE(verify_moderation(none[1]));
}

/// Alice and bob each hold two of their own moderations.
class ExchangeVerdictTest : public CastTest {
 protected:
  ExchangeVerdictTest() {
    alice.agent.publish(0x1, "a1", 5);
    alice.agent.publish(0x2, "a2", 6);
    bob.agent.publish(0x3, "b1", 5);
    bob.agent.publish(0x4, "b2", 6);
  }
  Peer alice{0};
  Peer bob{1};
};

TEST_F(ExchangeVerdictTest, AllClearMergesBothWays) {
  const ExchangeStats x = exchange(alice.agent, bob.agent, 10);
  EXPECT_EQ(x.sent_initiator, 2u);
  EXPECT_EQ(x.sent_responder, 2u);
  EXPECT_EQ(x.inserted, 4u);
  EXPECT_EQ(x.rejected, 0u);
  EXPECT_EQ(x.reoffered, 0u);
  EXPECT_FALSE(x.held_reply.has_value());
}

TEST_F(ExchangeVerdictTest, LostRequestQueuesTheInitiatorsReoffer) {
  util::EncounterFaults verdict;
  verdict.drop_request = true;
  const ExchangeStats x = exchange(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(x.sent_initiator, 2u);
  EXPECT_EQ(x.sent_responder, 0u);
  EXPECT_EQ(x.reoffered, 2u);
  EXPECT_EQ(alice.agent.pending_reoffers(), 2u);
  EXPECT_EQ(bob.agent.pending_reoffers(), 0u);
  EXPECT_EQ(bob.agent.db().count_from(0), 0u);
  EXPECT_EQ(alice.agent.db().count_from(1), 0u);
}

TEST_F(ExchangeVerdictTest, DamagedRequestRejectsItemWise) {
  util::EncounterFaults verdict;
  verdict.request_payload = util::PayloadFault::kCorrupted;
  verdict.payload_salt = 1;
  const ExchangeStats x = exchange(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(x.rejected, 1u);
  EXPECT_EQ(bob.agent.db().count_from(0), 1u);
  EXPECT_EQ(alice.agent.db().count_from(1), 2u);
  EXPECT_EQ(x.inserted, 3u);
}

TEST_F(ExchangeVerdictTest, LostReplyQueuesTheRespondersReoffer) {
  util::EncounterFaults verdict;
  verdict.crash_responder = true;
  const ExchangeStats x = exchange(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(bob.agent.db().count_from(0), 2u);
  EXPECT_EQ(alice.agent.db().count_from(1), 0u);
  EXPECT_EQ(x.sent_responder, 2u);
  EXPECT_EQ(x.reoffered, 2u);
  EXPECT_EQ(bob.agent.pending_reoffers(), 2u);
  EXPECT_EQ(alice.agent.pending_reoffers(), 0u);
  // The re-offer is the batch as built: it verifies on the next push.
  const std::vector<Moderation> retry = bob.agent.outgoing();
  ASSERT_GE(retry.size(), 2u);
  EXPECT_TRUE(verify_moderation(retry[0]));
  EXPECT_TRUE(verify_moderation(retry[1]));
}

TEST_F(ExchangeVerdictTest, DamagedReplyTruncatesTheInitiatorsMerge) {
  util::EncounterFaults verdict;
  verdict.reply_payload = util::PayloadFault::kTruncated;
  const ExchangeStats x = exchange(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(x.sent_responder, 2u);  // as built, before the damage
  EXPECT_EQ(bob.agent.db().count_from(0), 2u);
  EXPECT_EQ(alice.agent.db().count_from(1), 1u);
  EXPECT_EQ(x.rejected, 0u);
}

TEST_F(ExchangeVerdictTest, DeferredReplyIsHandedBackDamaged) {
  util::EncounterFaults verdict;
  verdict.delay_reply = 9;
  verdict.reply_payload = util::PayloadFault::kCorrupted;
  verdict.payload_salt = 0;  // the reply uses salt + 1: item 1 of 2
  ExchangeStats x = exchange(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(bob.agent.db().count_from(0), 2u);
  ASSERT_TRUE(x.held_reply.has_value());
  EXPECT_EQ(x.held_reply->size(), 2u);
  EXPECT_EQ(alice.agent.db().count_from(1), 0u);  // not delivered yet
  EXPECT_EQ(x.rejected, 0u);
  const auto merged = alice.agent.receive(*x.held_reply, 19);
  EXPECT_EQ(merged.inserted, 1u);
  EXPECT_EQ(merged.bad_signature, 1u);
}

}  // namespace
}  // namespace tribvote::moderation
