// Randomized churn stress for the swarm engine: arbitrary interleavings of
// join / deactivate / reactivate / leave / tick must preserve accounting
// invariants and never corrupt state. Parameterized over seeds.
#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "bt/swarm.hpp"
#include "bt/ledger.hpp"
#include "util/hash.hpp"

namespace tribvote::bt {

// Read-only view of the dense member store (a friend of Swarm).
struct SwarmInspector {
  /// Links held by `peer`'s member (0 for a non-member).
  static std::size_t links_held(const Swarm& s, PeerId peer) {
    const Swarm::Member* m = s.find(peer);
    return m == nullptr ? 0 : m->links.size();
  }
  /// Pieces `peer`'s member has on some link.
  static std::size_t in_flight(const Swarm& s, PeerId peer) {
    const Swarm::Member* m = s.find(peer);
    return m == nullptr ? 0 : m->in_flight.count();
  }
  /// Members holding a link whose uploader is `uploader`.
  static std::size_t links_from(const Swarm& s, PeerId uploader) {
    std::size_t n = 0;
    for (const Swarm::Entry& e : s.index_) {
      n += s.members_[e.slot].links.count(uploader);
    }
    return n;
  }
  /// The roster holds exactly the active members, in ascending id order.
  static bool roster_matches(const Swarm& s) {
    std::vector<PeerId> active;
    for (const Swarm::Entry& e : s.index_) {
      if (s.members_[e.slot].active) active.push_back(e.id);
    }
    std::vector<PeerId> roster;
    for (const Swarm::Entry& e : s.roster_) roster.push_back(e.id);
    return roster == active;
  }
};

namespace {

class SwarmChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kPeers = 12;

  SwarmChurnProperty() {
    for (PeerId id = 0; id < kPeers; ++id) {
      trace::PeerProfile p;
      p.id = id;
      p.connectable = id % 3 != 0;  // a third firewalled
      p.upload_kbps = 256;
      p.download_kbps = 2048;
      peers_.push_back(p);
    }
    spec_.id = 0;
    spec_.size_mb = 8;
    spec_.piece_kb = 1024;
    spec_.initial_seeder = 0;
    ledger_ = std::make_unique<Ledger>(kPeers);
    bandwidth_ = std::make_unique<BandwidthAllocator>(
        std::vector<double>(kPeers, 256.0),
        std::vector<double>(kPeers, 2048.0));
  }

  std::vector<trace::PeerProfile> peers_;
  trace::SwarmSpec spec_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<BandwidthAllocator> bandwidth_;
};

TEST_P(SwarmChurnProperty, InvariantsUnderRandomChurn) {
  util::Rng rng(GetParam());
  Swarm swarm(spec_, peers_, *ledger_, *bandwidth_, rng.derive(1));
  swarm.add_member(0, /*as_seed=*/true);

  std::map<PeerId, double> last_progress;
  std::size_t completions = 0;
  swarm.on_complete = [&](PeerId) { ++completions; };

  std::size_t rejoins = 0;
  std::vector<bool> has_left(kPeers, false);
  for (int op = 0; op < 1200; ++op) {
    const auto peer = static_cast<PeerId>(rng.next_below(kPeers));
    switch (rng.next_below(8)) {
      case 0:
        if (!swarm.is_member(peer)) {
          swarm.add_member(peer, false);
          if (has_left[peer]) {
            // A rejoining peer reuses a freed slot and must start empty.
            ++rejoins;
            ASSERT_EQ(swarm.progress(peer), 0.0) << "peer " << peer;
            ASSERT_FALSE(swarm.has_completed(peer));
            ASSERT_EQ(SwarmInspector::in_flight(swarm, peer), 0u);
            ASSERT_EQ(SwarmInspector::links_held(swarm, peer), 0u);
            ASSERT_EQ(SwarmInspector::links_from(swarm, peer), 0u);
          }
        }
        break;
      case 1:
        swarm.deactivate(peer);
        break;
      case 2:
        if (swarm.is_member(peer)) swarm.reactivate(peer);
        break;
      case 3:
        if (peer != 0) {  // keep the seed's state simple
          has_left[peer] = has_left[peer] || swarm.is_member(peer);
          swarm.leave(peer);
        }
        break;
      default:
        swarm.tick(10.0);
        break;
    }
    ASSERT_TRUE(SwarmInspector::roster_matches(swarm));

    // Invariant: active_count equals the number of active members.
    std::size_t active = 0;
    for (PeerId p = 0; p < kPeers; ++p) {
      if (swarm.is_active(p)) ++active;
      // Active implies member.
      if (swarm.is_active(p)) {
        ASSERT_TRUE(swarm.is_member(p));
      }
      // Progress is monotone for continuous members and within [0, 1].
      const double progress = swarm.progress(p);
      ASSERT_GE(progress, 0.0);
      ASSERT_LE(progress, 1.0);
      if (swarm.is_member(p)) {
        const auto it = last_progress.find(p);
        if (it != last_progress.end()) {
          ASSERT_GE(progress, it->second - 1e-12) << "peer " << p;
        }
        last_progress[p] = progress;
        // Completed members have full bitfields.
        if (swarm.has_completed(p)) {
          ASSERT_DOUBLE_EQ(progress, 1.0);
        }
      } else {
        last_progress.erase(p);
      }
      // Links live only on active, uncompleted members.
      if (!swarm.is_active(p) || swarm.has_completed(p)) {
        ASSERT_EQ(SwarmInspector::links_held(swarm, p), 0u)
            << "peer " << p << " at op " << op;
      }
      // No member holds a link from a non-member or an inactive uploader.
      if (!swarm.is_active(p)) {
        ASSERT_EQ(SwarmInspector::links_from(swarm, p), 0u) << "peer " << p;
      }
    }
    ASSERT_EQ(active, swarm.active_count());
  }
  // Sanity: the script exercises slot reuse.
  EXPECT_GT(rejoins, 0u);

  // Ledger conservation at the end.
  double up = 0, down = 0;
  for (PeerId p = 0; p < kPeers; ++p) {
    up += ledger_->total_uploaded_mb(p);
    down += ledger_->total_downloaded_mb(p);
  }
  EXPECT_NEAR(up, down, 1e-6);
  // Someone probably completed given 1200 ops; sanity only (no hard bound:
  // extreme churn sequences can starve everyone).
  EXPECT_GE(completions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwarmChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(SwarmFirewall, TwoFirewalledPeersNeverExchange) {
  // Exhaustive check over many rounds: bytes only ever flow on links with
  // at least one connectable endpoint.
  std::vector<trace::PeerProfile> peers;
  for (PeerId id = 0; id < 6; ++id) {
    trace::PeerProfile p;
    p.id = id;
    p.connectable = id % 2 == 0;
    p.upload_kbps = 512;
    p.download_kbps = 4096;
    peers.push_back(p);
  }
  trace::SwarmSpec spec;
  spec.size_mb = 6;
  spec.piece_kb = 1024;
  spec.initial_seeder = 1;  // firewalled seed
  Ledger ledger(6);
  BandwidthAllocator bandwidth(std::vector<double>(6, 512.0),
                               std::vector<double>(6, 4096.0));
  Swarm swarm(spec, peers, ledger, bandwidth, util::Rng(5));
  swarm.add_member(1, true);
  for (PeerId p = 0; p < 6; ++p) {
    if (p != 1) swarm.add_member(p, false);
  }
  for (int round = 0; round < 400; ++round) swarm.tick(10.0);
  for (PeerId a = 0; a < 6; ++a) {
    for (PeerId b = 0; b < 6; ++b) {
      if (a == b) continue;
      if (!peers[a].connectable && !peers[b].connectable) {
        EXPECT_EQ(ledger.uploaded_mb(a, b), 0.0)
            << "firewalled pair " << a << "->" << b;
      }
    }
  }
}

// Pinned outcome of the streaming path, which no committed golden covers:
// a seeded 12-peer churn script (joins, session ends and resumes, departures
// and rejoins) with streaming on. The expected totals and the digest of every
// ledger pair's bytes were recorded on the std::map member store, before the
// dense member store replaced it; any change to the picks, the RNG stream or
// the uploader order moves them.
TEST(SwarmStreamingPinned, SeededChurnOutcome) {
  constexpr std::size_t kPeers = 12;
  std::vector<trace::PeerProfile> peers;
  std::vector<double> up;
  std::vector<double> down;
  for (PeerId id = 0; id < kPeers; ++id) {
    trace::PeerProfile p;
    p.id = id;
    p.connectable = id % 4 != 1;
    p.upload_kbps = 32.0 * static_cast<double>(1 + id % 3);
    p.download_kbps = 256.0 * static_cast<double>(1 + id % 2);
    up.push_back(p.upload_kbps);
    down.push_back(p.download_kbps);
    peers.push_back(p);
  }
  trace::SwarmSpec spec;
  spec.size_mb = 16;
  spec.piece_kb = 256;  // 64 pieces, ~11 s of playback each at 192 kbps
  spec.initial_seeder = 0;
  Ledger ledger(kPeers);
  BandwidthAllocator bandwidth(up, down);
  StreamingConfig streaming;
  streaming.enabled = true;
  streaming.playback_kbps = 192.0;
  util::Rng script(2009);
  Swarm swarm(spec, peers, ledger, bandwidth, script.derive(1), streaming);
  swarm.add_member(0, /*as_seed=*/true);

  for (int op = 0; op < 900; ++op) {
    const auto peer = static_cast<PeerId>(1 + script.next_below(kPeers - 1));
    switch (script.next_below(10)) {
      case 0:
      case 1:
        if (!swarm.is_member(peer)) swarm.add_member(peer, false);
        break;
      case 2:
        swarm.deactivate(peer);
        break;
      case 3:
        if (swarm.is_member(peer)) swarm.reactivate(peer);
        break;
      case 4:
        swarm.leave(peer);
        break;
      default:
        swarm.tick(10.0);
        break;
    }
  }

  const StreamingTotals& t = swarm.streaming_totals();
  EXPECT_EQ(t.started, 52u);
  EXPECT_EQ(t.finished, 6u);
  EXPECT_EQ(t.pieces_on_time, 1305u);
  EXPECT_EQ(t.deadline_misses, 37u);
  std::uint64_t digest = 0;
  for (PeerId a = 0; a < kPeers; ++a) {
    for (PeerId b = 0; b < kPeers; ++b) {
      digest = util::hash_combine(
          digest, std::bit_cast<std::uint64_t>(ledger.uploaded_mb(a, b)));
    }
  }
  EXPECT_EQ(digest, 6416045073543634667u);
}

}  // namespace
}  // namespace tribvote::bt
