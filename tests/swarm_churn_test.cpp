// Randomized churn stress for the swarm engine: arbitrary interleavings of
// join / deactivate / reactivate / leave / tick must preserve accounting
// invariants and never corrupt state. Parameterized over seeds.
#include <gtest/gtest.h>

#include <map>

#include "bt/swarm.hpp"
#include "bt/transfer_ledger.hpp"

namespace tribvote::bt {
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
    ledger_ = std::make_unique<TransferLedger>(kPeers);
    bandwidth_ = std::make_unique<BandwidthAllocator>(
        std::vector<double>(kPeers, 256.0),
        std::vector<double>(kPeers, 2048.0));
  }

  std::vector<trace::PeerProfile> peers_;
  trace::SwarmSpec spec_;
  std::unique_ptr<TransferLedger> ledger_;
  std::unique_ptr<BandwidthAllocator> bandwidth_;
};

TEST_P(SwarmChurnProperty, InvariantsUnderRandomChurn) {
  util::Rng rng(GetParam());
  Swarm swarm(spec_, peers_, *ledger_, *bandwidth_, rng.derive(1));
  swarm.add_member(0, /*as_seed=*/true);

  std::map<PeerId, double> last_progress;
  std::size_t completions = 0;
  swarm.on_complete = [&](PeerId) { ++completions; };

  for (int op = 0; op < 1200; ++op) {
    const auto peer = static_cast<PeerId>(rng.next_below(kPeers));
    switch (rng.next_below(8)) {
      case 0:
        if (!swarm.is_member(peer)) {
          swarm.add_member(peer, false);
        }
        break;
      case 1:
        swarm.deactivate(peer);
        break;
      case 2:
        if (swarm.is_member(peer)) swarm.reactivate(peer);
        break;
      case 3:
        if (peer != 0) swarm.leave(peer);  // keep the seed's state simple
        break;
      default:
        swarm.tick(10.0);
        break;
    }

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
    }
    ASSERT_EQ(active, swarm.active_count());
  }

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
  TransferLedger ledger(6);
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

}  // namespace
}  // namespace tribvote::bt
