#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "vote/agent.hpp"
#include "vote/ballot_box.hpp"
#include "vote/encounter.hpp"
#include "vote/gossip.hpp"
#include "vote/ranking.hpp"
#include "vote/vote_list.hpp"
#include "vote/voxpopuli.hpp"

namespace tribvote::vote {
namespace {

TEST(LocalVoteList, OneVotePerModerator) {
  LocalVoteList list;
  list.cast(1, Opinion::kPositive, 10);
  list.cast(2, Opinion::kNegative, 20);
  list.cast(1, Opinion::kNegative, 30);  // revision, not a new entry
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.opinion_of(1), Opinion::kNegative);
  EXPECT_EQ(list.opinion_of(2), Opinion::kNegative);
  EXPECT_EQ(list.opinion_of(99), Opinion::kNone);
}

TEST(LocalVoteList, SelectReturnsAllWhenSmall) {
  LocalVoteList list;
  util::Rng rng(1);
  list.cast(1, Opinion::kPositive, 10);
  list.cast(2, Opinion::kPositive, 20);
  EXPECT_EQ(list.select_for_message(50, rng).size(), 2u);
  EXPECT_TRUE(list.select_for_message(0, rng).empty());
}

TEST(LocalVoteList, SelectCapsAndIncludesMostRecent) {
  LocalVoteList list;
  util::Rng rng(2);
  for (ModeratorId m = 0; m < 100; ++m) {
    list.cast(m, Opinion::kPositive, static_cast<Time>(m));
  }
  const auto msg = list.select_for_message(50, rng);
  ASSERT_EQ(msg.size(), 50u);
  std::set<ModeratorId> mods;
  for (const auto& v : msg) mods.insert(v.moderator);
  EXPECT_EQ(mods.size(), 50u);  // no duplicates
  // Recency half: the 25 newest (75..99) must all be present.
  for (ModeratorId m = 75; m < 100; ++m) {
    EXPECT_TRUE(mods.contains(m)) << "missing recent vote " << m;
  }
}

TEST(LocalVoteList, SelectRandomHalfVaries) {
  LocalVoteList list;
  util::Rng rng(3);
  for (ModeratorId m = 0; m < 100; ++m) {
    list.cast(m, Opinion::kPositive, static_cast<Time>(m));
  }
  std::set<ModeratorId> seen;
  for (int trial = 0; trial < 10; ++trial) {
    for (const auto& v : list.select_for_message(10, rng)) {
      seen.insert(v.moderator);
    }
  }
  EXPECT_GT(seen.size(), 20u);  // random half actually samples widely
}

TEST(BallotBox, MergeCountsUniqueVoters) {
  BallotBox box(100);
  box.merge(1, {{5, Opinion::kPositive, 1}}, 10);
  box.merge(2, {{5, Opinion::kPositive, 2}}, 20);
  box.merge(1, {{6, Opinion::kNegative, 3}}, 30);
  EXPECT_EQ(box.unique_voters(), 2u);
  EXPECT_EQ(box.size(), 3u);
}

TEST(BallotBox, OneVotePerVoterModeratorPair) {
  BallotBox box(100);
  box.merge(1, {{5, Opinion::kPositive, 1}}, 10);
  box.merge(1, {{5, Opinion::kNegative, 2}}, 20);  // revision
  EXPECT_EQ(box.size(), 1u);
  const auto tally = box.tally();
  EXPECT_EQ(tally.at(5).positive, 0u);
  EXPECT_EQ(tally.at(5).negative, 1u);
}

TEST(BallotBox, DropsMalformedNoneVotes) {
  BallotBox box(10);
  box.merge(1, {{5, Opinion::kNone, 1}}, 10);
  EXPECT_EQ(box.size(), 0u);
}

TEST(BallotBox, CapacityEvictsOldest) {
  BallotBox box(3);
  box.merge(1, {{10, Opinion::kPositive, 1}}, 10);
  box.merge(2, {{10, Opinion::kPositive, 2}}, 20);
  box.merge(3, {{10, Opinion::kPositive, 3}}, 30);
  box.merge(4, {{10, Opinion::kPositive, 4}}, 40);  // evicts voter 1's entry
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.unique_voters(), 3u);
  const auto tally = box.tally();
  EXPECT_EQ(tally.at(10).positive, 3u);
}

TEST(BallotBox, EvictsOldestUnderOutOfOrderReceiveTimes) {
  // A net-plane responder merges at each initiator's wire time, so one box
  // can see receive times go backwards. The victim is still the entry with
  // the oldest (received, seq), not the earliest inserted.
  BallotBox box(3);
  box.merge(1, {{10, Opinion::kPositive, 1}}, 5);
  box.merge(2, {{10, Opinion::kPositive, 1}}, 15);
  box.merge(3, {{10, Opinion::kPositive, 1}}, 25);
  box.merge(4, {{10, Opinion::kPositive, 1}}, 30);  // evicts voter 1 (t=5)
  EXPECT_FALSE(box.find(1, 10));
  box.merge(5, {{10, Opinion::kPositive, 1}}, 10);  // evicts voter 2 (t=15)
  EXPECT_FALSE(box.find(2, 10));
  EXPECT_TRUE(box.find(5, 10));
  // Voter 5's t=10 entry is now the oldest although it arrived last, so a
  // FIFO by arrival would wrongly evict voter 3 here.
  box.merge(6, {{10, Opinion::kPositive, 1}}, 20);  // evicts voter 5 (t=10)
  EXPECT_FALSE(box.find(5, 10));
  EXPECT_TRUE(box.find(3, 10));
  EXPECT_TRUE(box.find(4, 10));
  EXPECT_TRUE(box.find(6, 10));
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.unique_voters(), 3u);
  EXPECT_TRUE(box.invariants_hold());
}

TEST(BallotBox, EvictionUpdatesUniqueVoters) {
  BallotBox box(2);
  box.merge(1, {{10, Opinion::kPositive, 1}, {11, Opinion::kPositive, 1}},
            10);
  EXPECT_EQ(box.unique_voters(), 1u);
  // Two new votes from voter 2 evict both of voter 1's.
  box.merge(2, {{10, Opinion::kPositive, 2}, {11, Opinion::kPositive, 2}},
            20);
  EXPECT_EQ(box.unique_voters(), 1u);
  EXPECT_EQ(box.size(), 2u);
}

TEST(BallotBox, TallyAggregatesAcrossVoters) {
  BallotBox box(100);
  box.merge(1, {{7, Opinion::kPositive, 1}}, 1);
  box.merge(2, {{7, Opinion::kPositive, 1}}, 2);
  box.merge(3, {{7, Opinion::kNegative, 1}}, 3);
  box.merge(4, {{8, Opinion::kNegative, 1}}, 4);
  const auto tally = box.tally();
  EXPECT_EQ(tally.at(7).positive, 2u);
  EXPECT_EQ(tally.at(7).negative, 1u);
  EXPECT_EQ(tally.at(7).total(), 3u);
  EXPECT_EQ(tally.at(8).negative, 1u);
}

/// (moderator, positive, negative) per tallied moderator, in order.
using Rows = std::vector<std::tuple<ModeratorId, std::uint32_t, std::uint32_t>>;

Rows rows_of(const std::map<ModeratorId, Tally>& tally) {
  Rows rows;
  for (const auto& [m, t] : tally) rows.emplace_back(m, t.positive, t.negative);
  return rows;
}

TEST(BallotBox, TallyReadAfterEachChangeSeesIt) {
  // tally() is memoized between reads; each change below must reach the
  // next read, which is taken after the memo was filled.
  BallotBox box(3);
  box.merge(1, {{10, Opinion::kPositive, 1}}, 10);
  box.merge(2, {{10, Opinion::kPositive, 1}}, 20);
  box.merge(3, {{10, Opinion::kPositive, 1}}, 30);
  EXPECT_EQ(rows_of(box.tally()), (Rows{{10, 3, 0}}));
  // A refresh with the same opinion moves voter 2 to the tail and leaves
  // the tally as it was.
  box.merge(2, {{10, Opinion::kPositive, 2}}, 35);
  EXPECT_EQ(rows_of(box.tally()), (Rows{{10, 3, 0}}));

  box.merge(3, {{10, Opinion::kNegative, 2}}, 40);  // flips an opinion
  EXPECT_EQ(rows_of(box.tally()), (Rows{{10, 2, 1}}));

  box.merge(4, {{11, Opinion::kPositive, 1}}, 50);  // evicts voter 1
  EXPECT_FALSE(box.find(1, 10));
  EXPECT_EQ(rows_of(box.tally()), (Rows{{10, 1, 1}, {11, 1, 0}}));

  EXPECT_EQ(box.purge_voters([](PeerId v) { return v != 3; }), 1u);
  EXPECT_EQ(rows_of(box.tally()), (Rows{{10, 1, 0}, {11, 1, 0}}));
  EXPECT_EQ(rows_of(box.tally()), rows_of(box.recompute_tally()));
  EXPECT_TRUE(box.invariants_hold());
}

TEST(BallotBox, DispersionZeroOnConsensus) {
  BallotBox box(100);
  for (PeerId voter = 1; voter <= 4; ++voter) {
    box.merge(voter, {{7, Opinion::kPositive, 1}}, 1);
  }
  EXPECT_DOUBLE_EQ(box.dispersion(), 0.0);
}

TEST(BallotBox, DispersionOneOnMaximalConflict) {
  BallotBox box(100);
  box.merge(1, {{7, Opinion::kPositive, 1}}, 1);
  box.merge(2, {{7, Opinion::kNegative, 1}}, 1);
  EXPECT_DOUBLE_EQ(box.dispersion(), 1.0);
}

TEST(BallotBox, DispersionIgnoresSingleVoteModerators) {
  BallotBox box(100);
  box.merge(1, {{7, Opinion::kPositive, 1}}, 1);
  EXPECT_DOUBLE_EQ(box.dispersion(), 0.0);
}

TEST(BallotBox, PurgeVotersDropsMatchingEntries) {
  BallotBox box(100);
  box.merge(1, {{5, Opinion::kPositive, 1}, {6, Opinion::kPositive, 1}}, 1);
  box.merge(2, {{5, Opinion::kNegative, 1}}, 2);
  box.merge(3, {{5, Opinion::kPositive, 1}}, 3);
  const std::size_t removed =
      box.purge_voters([](PeerId voter) { return voter != 1; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.unique_voters(), 2u);
  const auto tally = box.tally();
  EXPECT_EQ(tally.at(5).positive, 1u);  // only voter 3's remains
  EXPECT_FALSE(tally.contains(6));
}

TEST(BallotBox, PurgeVotersKeepAllIsNoop) {
  BallotBox box(100);
  box.merge(1, {{5, Opinion::kPositive, 1}}, 1);
  EXPECT_EQ(box.purge_voters([](PeerId) { return true; }), 0u);
  EXPECT_EQ(box.size(), 1u);
}

TEST(BallotBox, MaxDispersionPicksWorstModerator) {
  BallotBox box(100);
  // Moderator 7: unanimous (3 votes). Moderator 8: 2 vs 1 split.
  for (PeerId v = 1; v <= 3; ++v) {
    box.merge(v, {{7, Opinion::kPositive, 1}}, 1);
  }
  box.merge(1, {{8, Opinion::kPositive, 1}}, 1);
  box.merge(2, {{8, Opinion::kPositive, 1}}, 1);
  box.merge(3, {{8, Opinion::kNegative, 1}}, 1);
  EXPECT_NEAR(box.max_dispersion(3), 1.0 - 1.0 / 3.0, 1e-12);
  // Raising the vote floor above the sample sizes silences the signal.
  EXPECT_DOUBLE_EQ(box.max_dispersion(4), 0.0);
}

TEST(Ranking, SumMethodOrdersByNetVotes) {
  std::map<ModeratorId, Tally> tally;
  tally[1] = Tally{5, 0};   // +5
  tally[2] = Tally{0, 0};   //  0
  tally[3] = Tally{1, 4};   // -3
  EXPECT_EQ(rank(tally, RankMethod::kSum), (RankedList{1, 2, 3}));
}

TEST(Ranking, ProportionalMethodUsesSmoothedRatio) {
  std::map<ModeratorId, Tally> tally;
  tally[1] = Tally{1, 0};    // 2/3
  tally[2] = Tally{10, 10};  // 11/22 = 0.5
  tally[3] = Tally{0, 1};    // 1/3
  EXPECT_EQ(rank(tally, RankMethod::kProportional), (RankedList{1, 2, 3}));
  EXPECT_NEAR(score(tally[1], RankMethod::kProportional), 2.0 / 3.0, 1e-12);
}

TEST(Ranking, TieBreaksByLowerId) {
  std::map<ModeratorId, Tally> tally;
  tally[9] = Tally{2, 0};
  tally[4] = Tally{2, 0};
  EXPECT_EQ(rank(tally, RankMethod::kSum), (RankedList{4, 9}));
}

TEST(Ranking, TopKTruncates) {
  std::map<ModeratorId, Tally> tally;
  for (ModeratorId m = 0; m < 10; ++m) tally[m] = Tally{m, 0};
  const auto top3 = rank_top_k(tally, RankMethod::kSum, 3);
  EXPECT_EQ(top3, (RankedList{9, 8, 7}));
}

TEST(VoxPopuli, EmptyCacheNoRanking) {
  VoxPopuliCache cache(10, 3);
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(cache.merged_ranking().empty());
}

TEST(VoxPopuli, SingleListPassesThrough) {
  VoxPopuliCache cache(10, 3);
  cache.add_list({7, 2, 9});
  EXPECT_EQ(cache.merged_ranking(), (RankedList{7, 2, 9}));
}

TEST(VoxPopuli, MissingModeratorChargedKPlusOne) {
  VoxPopuliCache cache(10, 3);
  cache.add_list({1, 2, 3});
  cache.add_list({1, 2, 3});
  cache.add_list({2, 1});  // 3 missing: rank 4 in this list
  // avg ranks: 1 -> (1+1+2)/3, 2 -> (2+2+1)/3, 3 -> (3+3+4)/3.
  EXPECT_EQ(cache.merged_ranking(), (RankedList{1, 2, 3}));
}

TEST(VoxPopuli, EvictsOldestBeyondVmax) {
  VoxPopuliCache cache(2, 3);
  cache.add_list({1});
  cache.add_list({2});
  cache.add_list({3});  // evicts {1}
  EXPECT_EQ(cache.list_count(), 2u);
  const auto merged = cache.merged_ranking();
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_TRUE(std::find(merged.begin(), merged.end(), 1u) == merged.end());
}

TEST(VoxPopuli, TruncatesOverlongLists) {
  VoxPopuliCache cache(5, 2);
  cache.add_list({1, 2, 3, 4});
  const auto merged = cache.merged_ranking();
  EXPECT_EQ(merged.size(), 2u);
}

TEST(VoxPopuli, MajorityBeatsSingleLiar) {
  VoxPopuliCache cache(10, 3);
  cache.add_list({1, 2, 3});
  cache.add_list({1, 2, 3});
  cache.add_list({9, 1, 2});  // liar promotes 9
  EXPECT_EQ(cache.merged_ranking().front(), 1u);
}

// ---- VoteAgent ---------------------------------------------------------------

class VoteAgentTest : public ::testing::Test {
 protected:
  struct Peer {
    Peer(PeerId id, bool experienced_result = true,
         VoteConfig config = VoteConfig{})
        : keys([id] {
            util::Rng r(500 + id);
            return crypto::generate_keypair(r);
          }()),
          agent(id, keys, config,
                [experienced_result](PeerId) { return experienced_result; },
                util::Rng(600 + id)) {}
    crypto::KeyPair keys;
    VoteAgent agent;
  };
};

TEST_F(VoteAgentTest, OutgoingVotesAreSigned) {
  Peer alice(0);
  alice.agent.cast_vote(3, Opinion::kPositive, 10);
  const VoteListMessage msg = alice.agent.outgoing_votes(20);
  EXPECT_EQ(msg.voter, 0u);
  EXPECT_EQ(msg.votes.size(), 1u);
  EXPECT_TRUE(crypto::verify(msg.key, msg.digest(), msg.signature));
}

TEST_F(VoteAgentTest, ReceiveAcceptsExperiencedVoter) {
  Peer alice(0), bob(1);
  bob.agent.cast_vote(3, Opinion::kPositive, 5);
  EXPECT_EQ(alice.agent.receive_votes(bob.agent.outgoing_votes(10), 10),
            ReceiveResult::kAccepted);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 1u);
}

TEST_F(VoteAgentTest, ReceiveRejectsInexperiencedVoter) {
  Peer alice(0, /*experienced_result=*/false);
  Peer bob(1);
  bob.agent.cast_vote(3, Opinion::kPositive, 5);
  EXPECT_EQ(alice.agent.receive_votes(bob.agent.outgoing_votes(10), 10),
            ReceiveResult::kInexperienced);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 0u);
}

TEST_F(VoteAgentTest, ReceiveRejectsForgedMessage) {
  Peer alice(0), bob(1), mallory(2);
  bob.agent.cast_vote(3, Opinion::kPositive, 5);
  VoteListMessage msg = bob.agent.outgoing_votes(10);
  // Mallory alters the votes.
  msg.votes[0].opinion = Opinion::kNegative;
  EXPECT_EQ(alice.agent.receive_votes(msg, 10),
            ReceiveResult::kBadSignature);
  // Mallory re-signs with her own key but claims bob's id.
  VoteListMessage forged = msg;
  forged.key = mallory.keys.pub;
  util::Rng r(1);
  forged.signature = crypto::sign(mallory.keys, forged.digest(), r);
  // Signature verifies against the embedded key, but the id binding is
  // checked by the caller against the Tribler PKI; inside the simulator the
  // embedded key IS bob's registered key, so a mismatched key means the
  // message digest check fails for bob's genuine key. We model the minimum:
  // the message must verify against its own key, and identities cannot be
  // spoofed because keys are registered per PeerId in core::Node.
  EXPECT_TRUE(crypto::verify(forged.key, forged.digest(), forged.signature));
}

TEST_F(VoteAgentTest, TruncatedOrBitDamagedMessageNeverPoisonsTheBox) {
  // In-flight damage as the fault plane deals it: truncation (tail of the
  // vote list lost) or a flipped signature bit. One Schnorr signature
  // covers the whole list, so either way verification fails wholesale and
  // the ballot box is untouched — a damaged message can never smuggle a
  // partial or altered vote set past the signature.
  Peer alice(0), bob(1);
  bob.agent.cast_vote(3, Opinion::kPositive, 5);
  bob.agent.cast_vote(4, Opinion::kNegative, 6);
  VoteListMessage truncated = bob.agent.outgoing_votes(10);
  ASSERT_EQ(truncated.votes.size(), 2u);
  truncated.votes.resize(1);
  EXPECT_EQ(alice.agent.receive_votes(truncated, 10),
            ReceiveResult::kBadSignature);
  VoteListMessage damaged = bob.agent.outgoing_votes(10);
  damaged.signature.s ^= 1ull << 17;
  EXPECT_EQ(alice.agent.receive_votes(damaged, 10),
            ReceiveResult::kBadSignature);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 0u);
  // Rejection is stateless: the pristine message still lands afterwards.
  EXPECT_EQ(alice.agent.receive_votes(bob.agent.outgoing_votes(10), 10),
            ReceiveResult::kAccepted);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 1u);
}

TEST_F(VoteAgentTest, ReceiveIgnoresSelfAndEmpty) {
  Peer alice(0);
  EXPECT_EQ(alice.agent.receive_votes(alice.agent.outgoing_votes(5), 5),
            ReceiveResult::kSelfMessage);
  Peer bob(1);
  EXPECT_EQ(alice.agent.receive_votes(bob.agent.outgoing_votes(5), 5),
            ReceiveResult::kEmpty);
}

TEST_F(VoteAgentTest, BootstrappingThreshold) {
  VoteConfig config;
  config.b_min = 2;
  Peer alice(0, true, config);
  EXPECT_TRUE(alice.agent.bootstrapping());
  for (PeerId voter = 1; voter <= 2; ++voter) {
    Peer other(voter);
    other.agent.cast_vote(3, Opinion::kPositive, 1);
    (void)alice.agent.receive_votes(other.agent.outgoing_votes(5), 5);
  }
  EXPECT_FALSE(alice.agent.bootstrapping());
}

TEST_F(VoteAgentTest, AnswerTopkNullWhileBootstrapping) {
  Peer alice(0);
  EXPECT_TRUE(alice.agent.answer_topk().empty());
}

TEST_F(VoteAgentTest, AnswerTopkAfterBmin) {
  VoteConfig config;
  config.b_min = 1;
  Peer alice(0, true, config);
  Peer bob(1);
  bob.agent.cast_vote(3, Opinion::kPositive, 1);
  (void)alice.agent.receive_votes(bob.agent.outgoing_votes(5), 5);
  const RankedList topk = alice.agent.answer_topk();
  ASSERT_FALSE(topk.empty());
  EXPECT_EQ(topk.front(), 3u);
}

TEST_F(VoteAgentTest, CurrentRankingUsesVoxWhileBootstrapping) {
  Peer alice(0);
  EXPECT_TRUE(alice.agent.current_ranking().empty());
  alice.agent.receive_topk({4, 5});
  EXPECT_EQ(alice.agent.current_ranking(), (RankedList{4, 5}));
  EXPECT_EQ(alice.agent.top_moderator(), std::optional<ModeratorId>{4});
}

TEST_F(VoteAgentTest, KnownModeratorsAppearWithZeroScore) {
  VoteConfig config;
  config.b_min = 1;
  Peer alice(0, true, config);
  alice.agent.known_moderators = [] {
    return std::vector<ModeratorId>{3, 8};
  };
  Peer bob(1);
  bob.agent.cast_vote(3, Opinion::kNegative, 1);
  (void)alice.agent.receive_votes(bob.agent.outgoing_votes(5), 5);
  // 8 (no votes, score 0) must outrank 3 (net -1).
  EXPECT_EQ(alice.agent.current_ranking(), (RankedList{8, 3}));
}

TEST_F(VoteAgentTest, ObservedDispersionSeesRejectedVotes) {
  // Alice rejects everyone (E = false) yet still observes the conflict.
  Peer alice(0, /*experienced_result=*/false);
  Peer bob(1), carol(2), dave(3);
  bob.agent.cast_vote(9, Opinion::kPositive, 1);
  carol.agent.cast_vote(9, Opinion::kPositive, 1);
  dave.agent.cast_vote(9, Opinion::kNegative, 1);
  for (auto* peer : {&bob, &carol, &dave}) {
    EXPECT_EQ(alice.agent.receive_votes(peer->agent.outgoing_votes(5), 5),
              ReceiveResult::kInexperienced);
  }
  EXPECT_EQ(alice.agent.ballot_box().size(), 0u);
  EXPECT_NEAR(alice.agent.observed_dispersion(), 1.0 - 1.0 / 3.0, 1e-12);
}

TEST_F(VoteAgentTest, RefilterBallotDropsNowInexperienced) {
  // Experience flips to false after the votes were accepted.
  bool experienced = true;
  const crypto::KeyPair keys = [] {
    util::Rng r(900);
    return crypto::generate_keypair(r);
  }();
  VoteAgent agent(0, keys, VoteConfig{},
                  [&experienced](PeerId) { return experienced; },
                  util::Rng(901));
  Peer bob(1);
  bob.agent.cast_vote(9, Opinion::kPositive, 1);
  ASSERT_EQ(agent.receive_votes(bob.agent.outgoing_votes(5), 5),
            ReceiveResult::kAccepted);
  ASSERT_EQ(agent.ballot_box().size(), 1u);
  experienced = false;
  EXPECT_EQ(agent.refilter_ballot(), 1u);
  EXPECT_EQ(agent.ballot_box().size(), 0u);
}

TEST_F(VoteAgentTest, PreloadBypassesChecks) {
  Peer alice(0, /*experienced_result=*/false);
  alice.agent.preload_sample(7, {{3, Opinion::kPositive, 1}}, 1);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 1u);
}

TEST_F(VoteAgentTest, VoteExchangeFullFlow) {
  VoteConfig config;
  config.b_min = 1;
  Peer alice(0, true, config);
  Peer bob(1, true, config);
  bob.agent.cast_vote(3, Opinion::kPositive, 1);
  Peer carol(2, true, config);

  // Bob gets a vote from carol so he is past B_min and can answer VP.
  carol.agent.cast_vote(3, Opinion::kPositive, 1);
  vote_encounter(bob.agent, carol.agent, 5);
  ASSERT_FALSE(bob.agent.bootstrapping());

  // Alice exchanges with bob: she accepts bob's vote list, which lifts her
  // past B_min *before* the VP leg — Fig. 3a checks the threshold after the
  // merge, so no VP request is issued.
  vote_encounter(alice.agent, bob.agent, 10);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 1u);
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 0u);

  // Dave considers nobody experienced: the ballot leg rejects bob's votes,
  // he stays bootstrapping, and the VP leg fires and fills his cache.
  Peer dave(3, /*experienced_result=*/false, config);
  vote_encounter(dave.agent, bob.agent, 20);
  EXPECT_EQ(dave.agent.ballot_box().unique_voters(), 0u);
  EXPECT_EQ(dave.agent.vox_cache().list_count(), 1u);
}

// ---- vote_encounter under a fault verdict -----------------------------------

/// A bootstrapping initiator (alice, B_min = 5) meeting a responder (bob,
/// B_min = 1) whose box already holds carol's vote, so bob answers the VP
/// request with a non-null top-K. Both have a vote of their own to send.
class EncounterVerdictTest : public VoteAgentTest {
 protected:
  static VoteConfig answering() {
    VoteConfig config;
    config.b_min = 1;
    return config;
  }

  EncounterVerdictTest() : bob(1, true, answering()) {
    alice.agent.cast_vote(3, Opinion::kPositive, 1);
    bob.agent.cast_vote(4, Opinion::kNegative, 1);
    bob.agent.preload_sample(2, {{5, Opinion::kPositive, 1}}, 1);
  }

  Peer alice{0};
  Peer bob;
};

TEST_F(EncounterVerdictTest, AllClearRunsBothLegsAndTheVpLeg) {
  const VoteEncounterOutcome o = vote_encounter(alice.agent, bob.agent, 10);
  EXPECT_EQ(o.forward.result, ReceiveResult::kAccepted);
  EXPECT_EQ(o.reverse.result, ReceiveResult::kAccepted);
  EXPECT_TRUE(o.vox_requested);
  EXPECT_GT(o.vox_topk, 0u);
  EXPECT_FALSE(o.held.has_value());
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 1u);
  EXPECT_TRUE(alice.agent.counterparts().known(1));
  EXPECT_TRUE(bob.agent.counterparts().known(0));
}

TEST_F(EncounterVerdictTest, LostRequestSendsTheOpeningFrameOnly) {
  const std::uint64_t alice_state = alice.agent.state_digest();
  const std::uint64_t bob_state = bob.agent.state_digest();
  util::EncounterFaults verdict;
  verdict.drop_request = true;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 10, verdict);
  // Cold pair: the opening frame is the full signed list.
  EXPECT_EQ(o.forward.list_size, 1u);
  EXPECT_EQ(o.forward.bytes, wire_size(alice.agent.outgoing_votes(10)));
  EXPECT_EQ(o.forward.signatures, 1u);
  EXPECT_EQ(o.reverse.bytes, 0u);
  EXPECT_TRUE(o.vox_requested);  // and lost with the dial
  EXPECT_EQ(o.vox_topk, 0u);
  EXPECT_FALSE(o.held.has_value());
  // Nobody's protocol state moved: no merge, no counterpart noted.
  EXPECT_EQ(alice.agent.state_digest(), alice_state);
  EXPECT_EQ(bob.agent.state_digest(), bob_state);
  EXPECT_EQ(bob.agent.gossip_stats().builds, 0u);
}

TEST_F(EncounterVerdictTest, LostRequestToAKnownPeerCountsADigest) {
  (void)vote_encounter(alice.agent, bob.agent, 10);
  util::EncounterFaults verdict;
  verdict.drop_request = true;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 20, verdict);
  EXPECT_EQ(o.forward.bytes,
            wire_size(make_digest(alice.agent.outgoing_votes(20))));
  EXPECT_TRUE(o.forward.cache_hit);
}

TEST_F(EncounterVerdictTest, DamagedRequestIsRejectedAndTheReplyStillLands) {
  for (const auto fault :
       {util::PayloadFault::kTruncated, util::PayloadFault::kCorrupted}) {
    EncounterVerdictTest::Peer a(0), b(1, true, answering());
    a.agent.cast_vote(3, Opinion::kPositive, 1);
    b.agent.cast_vote(4, Opinion::kNegative, 1);
    util::EncounterFaults verdict;
    verdict.request_payload = fault;
    verdict.payload_salt = 11;
    const VoteEncounterOutcome o =
        vote_encounter(a.agent, b.agent, 10, verdict);
    EXPECT_EQ(o.forward.result, ReceiveResult::kBadSignature);
    EXPECT_EQ(b.agent.ballot_box().size(), 0u);
    EXPECT_EQ(o.reverse.result, ReceiveResult::kAccepted);
    EXPECT_EQ(a.agent.ballot_box().unique_voters(), 1u);
  }
}

TEST_F(EncounterVerdictTest, LostReplyBuildsNothingAndLosesTheVpAnswer) {
  const std::uint64_t bob_builds = bob.agent.gossip_stats().builds;
  util::EncounterFaults verdict;
  verdict.drop_reply = true;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(o.forward.result, ReceiveResult::kAccepted);
  EXPECT_EQ(bob.agent.ballot_box().unique_voters(), 2u);  // carol + alice
  EXPECT_EQ(o.reverse.bytes, 0u);
  EXPECT_EQ(bob.agent.gossip_stats().builds, bob_builds);
  EXPECT_FALSE(bob.agent.counterparts().known(0));
  EXPECT_EQ(alice.agent.ballot_box().size(), 0u);
  EXPECT_TRUE(o.vox_requested);
  EXPECT_EQ(o.vox_topk, 0u);
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 0u);
  EXPECT_FALSE(o.held.has_value());
}

TEST_F(EncounterVerdictTest, DamagedReplyIsRejectedByTheInitiator) {
  util::EncounterFaults verdict;
  verdict.reply_payload = util::PayloadFault::kCorrupted;
  verdict.payload_salt = 4;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(o.forward.result, ReceiveResult::kAccepted);
  EXPECT_EQ(o.reverse.result, ReceiveResult::kBadSignature);
  EXPECT_EQ(alice.agent.ballot_box().size(), 0u);
  // The VP answer rides the reply's dial, not its damaged payload.
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 1u);
}

TEST_F(EncounterVerdictTest, DeferredReplyIsHandedBackForLaterDelivery) {
  util::EncounterFaults verdict;
  verdict.delay_reply = 7;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 10, verdict);
  EXPECT_EQ(o.forward.result, ReceiveResult::kAccepted);
  ASSERT_TRUE(o.held.has_value());
  // Built now as a full message (no delta handshake), delivered by the
  // caller: the initiator has neither the list nor the VP answer yet.
  EXPECT_EQ(o.reverse.bytes, wire_size(o.held->votes));
  EXPECT_FALSE(o.reverse.delta);
  EXPECT_EQ(o.reverse.list_size, 1u);
  EXPECT_FALSE(bob.agent.counterparts().known(0));
  EXPECT_EQ(alice.agent.ballot_box().size(), 0u);
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 0u);
  EXPECT_EQ(o.vox_topk, o.held->topk.size());
  ASSERT_FALSE(o.held->topk.empty());
  EXPECT_EQ(alice.agent.receive_votes(o.held->votes, 17),
            ReceiveResult::kAccepted);
  alice.agent.receive_topk(o.held->topk);
  EXPECT_EQ(alice.agent.ballot_box().unique_voters(), 1u);
  EXPECT_EQ(alice.agent.vox_cache().list_count(), 1u);
}

TEST_F(EncounterVerdictTest, DeferredDamagedReplyRejectsOnDelivery) {
  util::EncounterFaults verdict;
  verdict.delay_reply = 7;
  verdict.reply_payload = util::PayloadFault::kTruncated;
  const VoteEncounterOutcome o =
      vote_encounter(alice.agent, bob.agent, 10, verdict);
  ASSERT_TRUE(o.held.has_value());
  EXPECT_EQ(o.reverse.list_size, 1u);  // as built, before the damage
  EXPECT_EQ(alice.agent.receive_votes(o.held->votes, 17),
            ReceiveResult::kBadSignature);
  EXPECT_EQ(alice.agent.ballot_box().size(), 0u);
}

}  // namespace
}  // namespace tribvote::vote
