#include <gtest/gtest.h>

#include "attack/colluder.hpp"
#include "attack/front_peer.hpp"
#include "bt/ledger.hpp"
#include "vote/agent.hpp"

namespace tribvote::attack {
namespace {

crypto::KeyPair keys_for(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::generate_keypair(rng);
}

class ColluderTest : public ::testing::Test {
 protected:
  ColluderTest()
      : keys_(keys_for(1)),
        plan_{/*spam=*/90, /*victim=*/1, /*decoys=*/{1, 2}},
        colluder_(99, keys_, vote::VoteConfig{}, [](PeerId) { return true; },
                  util::Rng(2), plan_) {}

  crypto::KeyPair keys_;
  ColluderPlan plan_;
  ColluderVoteAgent colluder_;
};

TEST_F(ColluderTest, AlwaysAnswersTopkWithSpamFirst) {
  // A fresh honest agent would answer null (bootstrapping); the colluder
  // always responds and puts M0 first.
  EXPECT_TRUE(colluder_.bootstrapping());
  const vote::RankedList lie = colluder_.answer_topk();
  ASSERT_FALSE(lie.empty());
  EXPECT_EQ(lie.front(), 90u);
  EXPECT_LE(lie.size(), colluder_.config().k);
}

TEST_F(ColluderTest, DecoysFillRemainingSlots) {
  const vote::RankedList lie = colluder_.answer_topk();
  ASSERT_EQ(lie.size(), 3u);
  EXPECT_EQ(lie[1], 1u);
  EXPECT_EQ(lie[2], 2u);
}

TEST_F(ColluderTest, OutgoingVotesPromoteSpamAndDemoteVictim) {
  const vote::VoteListMessage msg = colluder_.outgoing_votes(50);
  ASSERT_EQ(msg.votes.size(), 2u);
  Opinion spam_vote = Opinion::kNone, victim_vote = Opinion::kNone;
  for (const auto& v : msg.votes) {
    if (v.moderator == 90) spam_vote = v.opinion;
    if (v.moderator == 1) victim_vote = v.opinion;
  }
  EXPECT_EQ(spam_vote, Opinion::kPositive);
  EXPECT_EQ(victim_vote, Opinion::kNegative);
}

TEST_F(ColluderTest, MessagesAreValidlySignedLies) {
  // The PKI cannot stop a colluder lying about its own opinion: the
  // signature verifies.
  const vote::VoteListMessage msg = colluder_.outgoing_votes(50);
  EXPECT_TRUE(crypto::verify(msg.key, msg.digest(), msg.signature));
}

TEST_F(ColluderTest, HonestReceiverStillAppliesExperience) {
  // An honest node that does NOT consider the colluder experienced rejects
  // its vote list — the BallotBox tier holds.
  const crypto::KeyPair hk = keys_for(3);
  vote::VoteAgent honest(0, hk, vote::VoteConfig{},
                         [](PeerId) { return false; }, util::Rng(4));
  EXPECT_EQ(honest.receive_votes(colluder_.outgoing_votes(60), 60),
            vote::ReceiveResult::kInexperienced);
  EXPECT_EQ(honest.ballot_box().unique_voters(), 0u);
}

TEST_F(ColluderTest, BootstrappingHonestNodeIsPolluted) {
  // But the same node, while bootstrapping, accepts the colluder's top-K
  // lie — the VoxPopuli window.
  const crypto::KeyPair hk = keys_for(5);
  vote::VoteAgent honest(0, hk, vote::VoteConfig{},
                         [](PeerId) { return false; }, util::Rng(6));
  ASSERT_TRUE(honest.bootstrapping());
  honest.receive_topk(colluder_.answer_topk());
  EXPECT_EQ(honest.top_moderator(), std::optional<ModeratorId>{90});
}

TEST(ColluderPlanTest, NoVictimMeansSingleVote) {
  ColluderPlan plan;
  plan.spam_moderator = 90;
  const crypto::KeyPair kk = keys_for(7);
  ColluderVoteAgent colluder(99, kk, vote::VoteConfig{},
                             [](PeerId) { return true; }, util::Rng(8),
                             plan);
  EXPECT_EQ(colluder.outgoing_votes(1).votes.size(), 1u);
  EXPECT_EQ(colluder.answer_topk(), (vote::RankedList{90}));
}

TEST(FrontPeerTest, FabricatesIntraCliqueRecords) {
  bt::Ledger ledger(5);
  ledger.add_transfer(3, 0, 2.0 * 1024 * 1024);  // one genuine record
  FrontPeerBarterAgent mole(3, bartercast::BarterConfig{}, {3, 4}, 500.0);
  std::vector<bartercast::BarterRecord> records;
  mole.outgoing_records(ledger, 10, records);
  // 1 genuine + 2 fabricated (3->4 and 4->3).
  ASSERT_EQ(records.size(), 3u);
  int fakes = 0;
  for (const auto& r : records) {
    if (r.mb == 500.0) {
      ++fakes;
      EXPECT_TRUE(r.from == 3 || r.to == 3);  // adjacency preserved
    }
  }
  EXPECT_EQ(fakes, 2);
}

TEST(FrontPeerTest, GenuineBehaviourUnderneath) {
  bt::Ledger ledger(5);
  FrontPeerBarterAgent mole(3, bartercast::BarterConfig{}, {3}, 500.0);
  // Clique of one: no fakes, only (empty) genuine records.
  std::vector<bartercast::BarterRecord> records{{0, 1, 1.0, 0}};
  mole.outgoing_records(ledger, 10, records);
  EXPECT_TRUE(records.empty());  // the buffer is overwritten, not appended
}

}  // namespace
}  // namespace tribvote::attack
