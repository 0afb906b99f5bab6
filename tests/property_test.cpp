// Cross-module property tests: randomized operation sequences checked
// against invariants, parameterized over seeds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "bartercast/maxflow.hpp"
#include "bartercast/protocol.hpp"
#include "bt/ledger.hpp"
#include "moderation/db.hpp"
#include "sim/simulator.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "vote/ballot_box.hpp"
#include "vote/voxpopuli.hpp"

namespace tribvote {
namespace {

// ---- simulator: random schedules execute in nondecreasing time order --------

class SimulatorOrderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorOrderProperty, EventsFireInNondecreasingTimeOrder) {
  util::Rng rng(GetParam());
  sim::Simulator sim;
  std::vector<Time> fired;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 300; ++i) {
    const Time at = static_cast<Time>(rng.next_below(10000));
    handles.push_back(
        sim.schedule_at(at, [&fired, &sim] { fired.push_back(sim.now()); }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (auto& h : handles) {
    if (rng.next_bool(0.33)) {
      h.cancel();
      ++cancelled;
    }
  }
  sim.run_until(10000);
  EXPECT_EQ(fired.size(), 300 - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---- ballot box: random merges never violate the structural invariants ------

class BallotBoxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BallotBoxProperty, InvariantsHoldUnderRandomMerges) {
  util::Rng rng(GetParam());
  const std::size_t b_max = 1 + rng.next_below(60);
  vote::BallotBox box(b_max);
  std::set<PeerId> voters_seen;
  for (int op = 0; op < 400; ++op) {
    const auto voter = static_cast<PeerId>(rng.next_below(25));
    std::vector<vote::VoteEntry> votes;
    const auto n_votes = 1 + rng.next_below(4);
    for (std::uint64_t v = 0; v < n_votes; ++v) {
      votes.push_back(vote::VoteEntry{
          static_cast<ModeratorId>(rng.next_below(8)),
          rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative,
          static_cast<Time>(op)});
    }
    box.merge(voter, votes, static_cast<Time>(op));

    // Invariant: capacity respected.
    ASSERT_LE(box.size(), b_max);
    ASSERT_TRUE(box.invariants_hold());
    // Invariant: unique voters consistent with tally mass.
    std::size_t tally_mass = 0;
    for (const auto& [m, t] : box.tally()) tally_mass += t.total();
    ASSERT_EQ(tally_mass, box.size());
    ASSERT_LE(box.unique_voters(), box.size());
    ASSERT_GE(box.unique_voters(), box.size() > 0 ? 1u : 0u);
    // Invariant: dispersion bounded.
    ASSERT_GE(box.dispersion(), 0.0);
    ASSERT_LE(box.dispersion(), 1.0);
    ASSERT_GE(box.max_dispersion(/*min_votes=*/2),
              box.dispersion() - 1e-12);
  }
  // Purging everything empties the box coherently.
  box.purge_voters([](PeerId) { return false; });
  EXPECT_EQ(box.size(), 0u);
  EXPECT_EQ(box.unique_voters(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BallotBoxProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---- ballot box: the flat box matches the std::map box op for op ------------

// The ballot box as it was stored before DESIGN §19: a std::map keyed
// (voter, moderator) whose eviction scans every entry for the oldest
// (received, seq). Kept here as the reference the flat rows and recency
// list must reproduce exactly, digest included.
class ReferenceBallotBox {
 public:
  explicit ReferenceBallotBox(std::size_t b_max) : b_max_(b_max) {}

  void merge(PeerId voter, const std::vector<vote::VoteEntry>& votes,
             Time now) {
    for (const vote::VoteEntry& v : votes) {
      if (v.opinion == Opinion::kNone) continue;
      const auto key = std::make_pair(voter, v.moderator);
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.opinion = v.opinion;
        it->second.received = now;
        it->second.seq = next_seq_++;
        it->second.cast_at = v.cast_at;
        continue;
      }
      if (entries_.size() >= b_max_) evict_oldest();
      entries_.emplace(key, Entry{voter, v.moderator, v.opinion, now,
                                  next_seq_++, v.cast_at});
    }
  }

  std::size_t purge_voters(const std::function<bool(PeerId)>& keep) {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (keep(it->second.voter)) {
        ++it;
      } else {
        it = entries_.erase(it);
        ++removed;
      }
    }
    return removed;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  [[nodiscard]] std::size_t unique_voters() const {
    std::set<PeerId> voters;
    for (const auto& [key, e] : entries_) voters.insert(e.voter);
    return voters.size();
  }

  [[nodiscard]] std::map<ModeratorId, vote::Tally> tally() const {
    std::map<ModeratorId, vote::Tally> result;
    for (const auto& [key, e] : entries_) {
      vote::Tally& t = result[e.moderator];
      if (e.opinion == Opinion::kPositive) {
        ++t.positive;
      } else {
        ++t.negative;
      }
    }
    return result;
  }

  [[nodiscard]] std::optional<vote::VoteEntry> find(
      PeerId voter, ModeratorId moderator) const {
    const auto it = entries_.find(std::make_pair(voter, moderator));
    if (it == entries_.end()) return std::nullopt;
    return vote::VoteEntry{it->second.moderator, it->second.opinion,
                           it->second.cast_at};
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h =
        util::digest_fields({b_max_, next_seq_, entries_.size()});
    for (const auto& [key, e] : entries_) {
      h = util::hash_combine(
          h, util::digest_fields(
                 {e.voter, e.moderator,
                  static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(opinion_value(e.opinion))),
                  static_cast<std::uint64_t>(e.received), e.seq,
                  static_cast<std::uint64_t>(e.cast_at)}));
    }
    return h;
  }

 private:
  struct Entry {
    PeerId voter;
    ModeratorId moderator;
    Opinion opinion;
    Time received;
    std::uint64_t seq;
    Time cast_at;
  };

  void evict_oldest() {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.received < victim->second.received ||
          (it->second.received == victim->second.received &&
           it->second.seq < victim->second.seq)) {
        victim = it;
      }
    }
    entries_.erase(victim);
  }

  std::size_t b_max_;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<PeerId, ModeratorId>, Entry> entries_;
};

[[nodiscard]] bool same_tally(const std::map<ModeratorId, vote::Tally>& a,
                              const std::map<ModeratorId, vote::Tally>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.positive == y.second.positive &&
                             x.second.negative == y.second.negative;
                    });
}

[[nodiscard]] bool same_vote(const std::optional<vote::VoteEntry>& a,
                             const std::optional<vote::VoteEntry>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->moderator == b->moderator && a->opinion == b->opinion &&
                a->cast_at == b->cast_at);
}

class BallotBoxDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(BallotBoxDifferential, MatchesMapReferenceOpForOp) {
  const auto [seed, b_max] = GetParam();
  util::Rng rng(seed);
  vote::BallotBox box(b_max);
  ReferenceBallotBox ref(b_max);
  // 30 voters x 8 moderators = 240 keys, more than the largest box holds,
  // so every capacity sees new votes, refreshes, revisions and evictions.
  constexpr std::uint64_t kVoters = 30;
  constexpr std::uint64_t kModerators = 8;
  Time clock = 1000;
  for (int op = 0; op < 10000; ++op) {
    if (rng.next_bool(0.02)) {
      // Purge a random subset of voters; both boxes must ask `keep` about
      // the same voters in the same order.
      const auto modulus = 2 + rng.next_below(6);
      const auto residue = rng.next_below(modulus);
      std::vector<PeerId> asked_box;
      std::vector<PeerId> asked_ref;
      const auto removed = box.purge_voters([&](PeerId v) {
        asked_box.push_back(v);
        return v % modulus != residue;
      });
      const auto ref_removed = ref.purge_voters([&](PeerId v) {
        asked_ref.push_back(v);
        return v % modulus != residue;
      });
      ASSERT_EQ(removed, ref_removed) << "op " << op;
      ASSERT_EQ(asked_box, asked_ref) << "op " << op;
    } else {
      // Receive times mostly advance, often tie, and sometimes go back
      // (a net-plane responder merges at each initiator's wire time).
      Time now = clock;
      const auto draw = rng.next_below(100);
      if (draw < 55) {
        clock += static_cast<Time>(rng.next_below(4));
        now = clock;
      } else if (draw < 80) {
        now = clock;
      } else {
        now = clock - static_cast<Time>(rng.next_below(25));
      }
      const auto voter = static_cast<PeerId>(rng.next_below(kVoters));
      std::vector<vote::VoteEntry> votes;
      const auto n_votes = 1 + rng.next_below(5);
      for (std::uint64_t i = 0; i < n_votes; ++i) {
        const auto kind = rng.next_below(10);
        const Opinion opinion = kind == 0   ? Opinion::kNone
                                : kind <= 5 ? Opinion::kPositive
                                            : Opinion::kNegative;
        votes.push_back(vote::VoteEntry{
            static_cast<ModeratorId>(rng.next_below(kModerators)), opinion,
            static_cast<Time>(rng.next_below(1u << 20))});
      }
      box.merge(voter, votes, now);
      ref.merge(voter, votes, now);
    }
    ASSERT_TRUE(box.invariants_hold()) << "op " << op;
    ASSERT_EQ(box.digest(), ref.digest()) << "op " << op;
    ASSERT_EQ(box.size(), ref.size()) << "op " << op;
    ASSERT_EQ(box.unique_voters(), ref.unique_voters()) << "op " << op;
    ASSERT_TRUE(same_tally(box.tally(), box.recompute_tally())) << "op " << op;
    ASSERT_TRUE(same_tally(box.tally(), ref.tally())) << "op " << op;
    for (int probe = 0; probe < 4; ++probe) {
      // Keys inside the key space are held or not; the one past it never is.
      const auto voter = static_cast<PeerId>(rng.next_below(kVoters + 1));
      const auto moderator =
          static_cast<ModeratorId>(rng.next_below(kModerators + 1));
      ASSERT_TRUE(same_vote(box.find(voter, moderator),
                            ref.find(voter, moderator)))
          << "op " << op << " find(" << voter << ", " << moderator << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByCapacity, BallotBoxDifferential,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values<std::size_t>(1, 2, 7, 100)));

// ---- VoxPopuli: merged ranking contains exactly the cached moderators -------

class VoxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoxProperty, MergedRankingIsPermutationOfCachedModerators) {
  util::Rng rng(GetParam());
  const std::size_t v_max = 1 + rng.next_below(12);
  const std::size_t k = 1 + rng.next_below(6);
  vote::VoxPopuliCache cache(v_max, k);
  std::vector<vote::RankedList> recent;  // our model of the cache window
  for (int round = 0; round < 60; ++round) {
    vote::RankedList list;
    std::set<ModeratorId> used;
    const std::size_t len = 1 + rng.next_below(k);
    while (list.size() < len) {
      const auto m = static_cast<ModeratorId>(rng.next_below(12));
      if (used.insert(m).second) list.push_back(m);
    }
    cache.add_list(list);
    recent.push_back(list);
    if (recent.size() > v_max) recent.erase(recent.begin());

    const vote::RankedList merged = cache.merged_ranking();
    std::set<ModeratorId> expected;
    for (const auto& l : recent) expected.insert(l.begin(), l.end());
    std::set<ModeratorId> actual(merged.begin(), merged.end());
    ASSERT_EQ(actual, expected) << "round " << round;
    ASSERT_EQ(merged.size(), actual.size()) << "duplicates in ranking";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoxProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---- moderation db: extract never leaks disapproved moderators --------------

class ModerationDbProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ModerationDbProperty, ExtractRespectsApprovalGating) {
  util::Rng rng(GetParam());
  util::Rng key_rng(GetParam() ^ 0xfeed);
  const crypto::KeyPair keys = crypto::generate_keypair(key_rng);
  std::map<ModeratorId, Opinion> opinions;
  moderation::ModerationDb db(
      /*owner=*/99, moderation::DbConfig{50},
      [&opinions](ModeratorId m) {
        const auto it = opinions.find(m);
        return it == opinions.end() ? Opinion::kNone : it->second;
      });
  for (int op = 0; op < 200; ++op) {
    const auto moderator = static_cast<ModeratorId>(rng.next_below(6));
    const double roll = rng.next_double();
    if (roll < 0.5) {
      (void)db.merge(moderation::make_moderation(
                         moderator, keys, rng(), "item",
                         static_cast<Time>(op), rng),
                     static_cast<Time>(op));
    } else if (roll < 0.7) {
      opinions[moderator] =
          rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative;
      if (opinions[moderator] == Opinion::kNegative) {
        db.purge_moderator(moderator);
      }
    } else {
      const auto out = db.extract(1 + rng.next_below(20), rng);
      std::set<moderation::ModerationId> ids;
      for (const auto& m : out) {
        // Gating: own or positively-approved moderators only.
        const auto it = opinions.find(m.moderator);
        const Opinion o = it == opinions.end() ? Opinion::kNone : it->second;
        ASSERT_TRUE(m.moderator == 99 || o == Opinion::kPositive)
            << "leaked moderator " << m.moderator;
        ASSERT_TRUE(ids.insert(m.digest()).second) << "duplicate item";
      }
    }
    ASSERT_LE(db.size(), 50u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModerationDbProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---- trace: generate -> serialize -> parse roundtrips for random params -----

class TraceRoundtripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TraceRoundtripProperty, GeneratedTracesRoundtripAndValidate) {
  util::Rng rng(GetParam());
  trace::GeneratorParams params;
  params.n_peers = static_cast<std::uint32_t>(5 + rng.next_below(40));
  params.n_swarms = static_cast<std::uint32_t>(1 + rng.next_below(6));
  params.duration = static_cast<Duration>(
      kDay / 2 + static_cast<Duration>(rng.next_below(2 * kDay)));
  params.free_rider_fraction = rng.next_double(0.0, 0.5);
  const trace::Trace original = trace::generate_trace(params, rng());

  std::stringstream buf;
  trace::write_trace(buf, original);
  const trace::Trace parsed = trace::read_trace(buf);
  EXPECT_EQ(parsed.event_count(), original.event_count());
  EXPECT_EQ(parsed.peers.size(), original.peers.size());

  // Analyzer invariants on arbitrary generated traces.
  const trace::TraceStats st = trace::analyze(parsed);
  EXPECT_GE(st.avg_online_fraction, 0.0);
  EXPECT_LE(st.avg_online_fraction, 1.0);
  EXPECT_LE(st.free_rider_fraction, 1.0);
  for (const auto& s : parsed.sessions) {
    EXPECT_LT(s.start, s.end);
    EXPECT_LE(s.end, parsed.duration);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundtripProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---- barter contribution cache: cached == scratch across random mutations ---

class BarterCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Drives a BarterAgent through 1k random mutations (direct-view syncs and
// gossip merges, interleaved with pin conflicts and stale reports) and
// checks after every step that the memoized contribution_of answers are
// bit-identical to a scratch max_flow over the same graph, and match a
// brute-force closed-form recompute from edge_mb (independent of the CSR /
// cache machinery). Also cross-checks the batched column periodically.
TEST_P(BarterCacheProperty, CachedContributionsEqualScratchRecompute) {
  util::Rng rng(GetParam() * 7919 + 17);
  constexpr PeerId kPeers = 12;
  const int hops = GetParam() % 3 == 2 ? 3 : 2;  // exercise the EK path too
  bartercast::BarterConfig config;
  config.max_path_edges = hops;
  bt::Ledger ledger(kPeers);
  bartercast::BarterAgent agent(0, config);

  Time now = 1;
  for (int step = 0; step < 1000; ++step) {
    ++now;
    if (rng.next_bool(0.3)) {
      // A transfer adjacent to the agent, then a direct-view sync.
      const auto other = static_cast<PeerId>(1 + rng.next_below(kPeers - 1));
      if (rng.next_bool(0.5)) {
        ledger.add_transfer(other, 0, rng.next_double(0.1, 20.0) * 1024 * 1024);
      } else {
        ledger.add_transfer(0, other, rng.next_double(0.1, 20.0) * 1024 * 1024);
      }
      agent.sync_direct(ledger, now);
    } else {
      // Gossip from a random sender about one of its pairs; timestamps are
      // sometimes stale so the freshest-wins rule gets exercised.
      const auto sender = static_cast<PeerId>(1 + rng.next_below(kPeers - 1));
      auto counterpart = static_cast<PeerId>(rng.next_below(kPeers));
      if (counterpart == sender) counterpart = (sender + 1) % kPeers;
      const Time reported =
          rng.next_bool(0.2) ? now - static_cast<Time>(rng.next_below(500))
                             : now;
      const bartercast::BarterRecord record =
          rng.next_bool(0.5)
              ? bartercast::BarterRecord{sender, counterpart,
                                         rng.next_double(0.1, 20.0), reported}
              : bartercast::BarterRecord{counterpart, sender,
                                         rng.next_double(0.1, 20.0), reported};
      agent.receive(sender, {record});
    }

    // Cached vs scratch: must be bit-identical (same code path, memo off).
    const auto probe = static_cast<PeerId>(rng.next_below(kPeers));
    const double cached = agent.contribution_of(probe);
    const double scratch =
        probe == 0 ? 0.0 : bartercast::max_flow(agent.graph(), probe, 0, hops);
    EXPECT_DOUBLE_EQ(cached, scratch) << "step " << step << " j=" << probe;

    // Cached vs brute force (hop bound 2 admits the closed form).
    if (hops == 2) {
      double reference = agent.graph().edge_mb(probe, 0);
      for (PeerId k = 1; k < kPeers; ++k) {
        if (k == probe) continue;
        const double a = agent.graph().edge_mb(probe, k);
        const double b = agent.graph().edge_mb(k, 0);
        if (a > 0 && b > 0) reference += std::min(a, b);
      }
      if (probe == 0) reference = 0.0;
      EXPECT_NEAR(cached, reference, 1e-9) << "step " << step;
    }

    if (step % 100 == 99) {
      const std::vector<double>& column = agent.contribution_column(kPeers);
      for (PeerId j = 0; j < kPeers; ++j) {
        EXPECT_DOUBLE_EQ(column[j], agent.contribution_of(j))
            << "step " << step << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarterCacheProperty,
                         ::testing::Range<std::uint64_t>(0, 9));

}  // namespace
}  // namespace tribvote
