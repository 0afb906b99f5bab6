#include "bt/swarm.hpp"

#include <gtest/gtest.h>

#include "bt/ledger.hpp"

#include <vector>

namespace tribvote::bt {
namespace {

/// Fixture building a small swarm: peer 0 seeds a 10-piece file; peers have
/// generous symmetric capacities unless a test overrides them.
class SwarmTest : public ::testing::Test {
 protected:
  static constexpr double kDt = 10.0;

  void build(std::size_t n_peers, std::int64_t size_mb = 10,
             double up_kbps = 1024.0) {
    peers_.clear();
    for (PeerId id = 0; id < n_peers; ++id) {
      trace::PeerProfile p;
      p.id = id;
      p.connectable = true;
      p.upload_kbps = up_kbps;
      p.download_kbps = 8 * up_kbps;
      peers_.push_back(p);
    }
    spec_ = trace::SwarmSpec{};
    spec_.id = 0;
    spec_.size_mb = size_mb;
    spec_.piece_kb = 1024;  // 1 MB pieces -> size_mb pieces
    spec_.initial_seeder = 0;
    ledger_ = std::make_unique<Ledger>(n_peers);
    bandwidth_ = std::make_unique<BandwidthAllocator>(
        std::vector<double>(n_peers, up_kbps),
        std::vector<double>(n_peers, 8 * up_kbps));
    swarm_ = std::make_unique<Swarm>(spec_, peers_, *ledger_, *bandwidth_,
                                     util::Rng(7));
  }

  /// Run rounds until `peer` completes or `max_rounds` elapse.
  int run_until_complete(PeerId peer, int max_rounds = 5000) {
    int rounds = 0;
    while (!swarm_->has_completed(peer) && rounds < max_rounds) {
      swarm_->tick(kDt);
      ++rounds;
    }
    return rounds;
  }

  std::vector<trace::PeerProfile> peers_;
  trace::SwarmSpec spec_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<BandwidthAllocator> bandwidth_;
  std::unique_ptr<Swarm> swarm_;
};

TEST_F(SwarmTest, SeederStartsComplete) {
  build(2);
  swarm_->add_member(0, /*as_seed=*/true);
  EXPECT_TRUE(swarm_->has_completed(0));
  EXPECT_DOUBLE_EQ(swarm_->progress(0), 1.0);
  EXPECT_EQ(swarm_->active_count(), 1u);
}

TEST_F(SwarmTest, SingleLeecherDownloadsFromSeed) {
  build(2);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  bool completed = false;
  swarm_->on_complete = [&](PeerId p) { completed = (p == 1); };
  const int rounds = run_until_complete(1);
  EXPECT_TRUE(swarm_->has_completed(1));
  EXPECT_TRUE(completed);
  // 10 MB at 1 MB/s (1024 KB/s) ≈ 10 s of transfer = 1 round minimum;
  // allow protocol overhead but require sane throughput.
  EXPECT_LE(rounds, 40) << "download took implausibly long";
  EXPECT_NEAR(ledger_->uploaded_mb(0, 1), 10.0, 0.5);
}

TEST_F(SwarmTest, MultipleLeechersAllComplete) {
  build(6);
  swarm_->add_member(0, true);
  for (PeerId p = 1; p < 6; ++p) swarm_->add_member(p, false);
  for (int round = 0; round < 5000; ++round) {
    swarm_->tick(kDt);
    bool all = true;
    for (PeerId p = 1; p < 6; ++p) all = all && swarm_->has_completed(p);
    if (all) break;
  }
  for (PeerId p = 1; p < 6; ++p) {
    EXPECT_TRUE(swarm_->has_completed(p)) << "peer " << p;
  }
}

TEST_F(SwarmTest, LeechersUploadToEachOther) {
  build(6);
  swarm_->add_member(0, true);
  for (PeerId p = 1; p < 6; ++p) swarm_->add_member(p, false);
  for (int round = 0; round < 600; ++round) swarm_->tick(kDt);
  // Piece exchange between leechers must have happened (not pure
  // client-server from the seed).
  double leecher_to_leecher = 0;
  for (PeerId a = 1; a < 6; ++a) {
    for (PeerId b = 1; b < 6; ++b) {
      if (a != b) leecher_to_leecher += ledger_->uploaded_mb(a, b);
    }
  }
  EXPECT_GT(leecher_to_leecher, 1.0);
}

TEST_F(SwarmTest, FirewalledPairCannotExchange) {
  build(3);
  peers_[0].connectable = false;
  peers_[2].connectable = false;
  // Rebuild with the modified profiles (span references peers_).
  swarm_ = std::make_unique<Swarm>(spec_, peers_, *ledger_, *bandwidth_,
                                   util::Rng(7));
  swarm_->add_member(0, true);   // firewalled seed
  swarm_->add_member(2, false);  // firewalled leecher
  for (int round = 0; round < 200; ++round) swarm_->tick(kDt);
  EXPECT_EQ(ledger_->uploaded_mb(0, 2), 0.0);
  EXPECT_FALSE(swarm_->has_completed(2));

  // A connectable relay unblocks the swarm.
  swarm_->add_member(1, false);
  const int rounds = run_until_complete(2);
  EXPECT_TRUE(swarm_->has_completed(2)) << "after " << rounds << " rounds";
  EXPECT_EQ(ledger_->uploaded_mb(0, 2), 0.0);  // still no direct link
  EXPECT_GT(ledger_->uploaded_mb(1, 2), 0.0);  // relayed via peer 1
}

TEST_F(SwarmTest, DeactivateStopsTransfersAndPreservesPieces) {
  build(2, /*size_mb=*/10, /*up_kbps=*/256.0);  // 2.5 MB per 10 s round
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  for (int round = 0; round < 3; ++round) swarm_->tick(kDt);
  const double progress = swarm_->progress(1);
  EXPECT_GT(progress, 0.0);
  EXPECT_LT(progress, 1.0);

  swarm_->deactivate(1);
  EXPECT_FALSE(swarm_->is_active(1));
  for (int round = 0; round < 10; ++round) swarm_->tick(kDt);
  EXPECT_DOUBLE_EQ(swarm_->progress(1), progress);  // nothing moved

  swarm_->reactivate(1);
  run_until_complete(1);
  EXPECT_TRUE(swarm_->has_completed(1));
}

TEST_F(SwarmTest, DeactivatedSeedStallsSwarm) {
  build(2);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  swarm_->deactivate(0);
  for (int round = 0; round < 50; ++round) swarm_->tick(kDt);
  EXPECT_DOUBLE_EQ(swarm_->progress(1), 0.0);
}

TEST_F(SwarmTest, LeaveRemovesMember) {
  build(3);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  swarm_->add_member(2, false);
  swarm_->leave(1);
  EXPECT_FALSE(swarm_->is_member(1));
  EXPECT_EQ(swarm_->active_count(), 2u);
  run_until_complete(2);
  EXPECT_TRUE(swarm_->has_completed(2));
}

TEST_F(SwarmTest, CompletedLeecherSeedsOthers) {
  build(3);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  run_until_complete(1);
  ASSERT_TRUE(swarm_->has_completed(1));
  // Seed 0 goes away; the completed leecher carries the swarm.
  swarm_->deactivate(0);
  swarm_->add_member(2, false);
  run_until_complete(2);
  EXPECT_TRUE(swarm_->has_completed(2));
  EXPECT_GT(ledger_->uploaded_mb(1, 2), 0.0);
}

TEST_F(SwarmTest, OnCompleteFiresExactlyOnce) {
  build(2);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  int fires = 0;
  swarm_->on_complete = [&](PeerId) { ++fires; };
  run_until_complete(1);
  for (int round = 0; round < 20; ++round) swarm_->tick(kDt);
  EXPECT_EQ(fires, 1);
}

TEST_F(SwarmTest, LedgerConservation) {
  build(4);
  swarm_->add_member(0, true);
  for (PeerId p = 1; p < 4; ++p) swarm_->add_member(p, false);
  for (int round = 0; round < 2000; ++round) swarm_->tick(kDt);
  // Total uploaded == total downloaded, and every completed peer
  // downloaded at least the file size.
  double up = 0, down = 0;
  for (PeerId p = 0; p < 4; ++p) {
    up += ledger_->total_uploaded_mb(p);
    down += ledger_->total_downloaded_mb(p);
  }
  EXPECT_NEAR(up, down, 1e-6);
  for (PeerId p = 1; p < 4; ++p) {
    if (swarm_->has_completed(p)) {
      EXPECT_GE(ledger_->total_downloaded_mb(p),
                static_cast<double>(spec_.size_mb) - 0.01);
    }
  }
}

TEST_F(SwarmTest, NoTransfersWithoutCounterpart) {
  build(2);
  swarm_->add_member(1, false);  // leecher alone, no seed
  for (int round = 0; round < 50; ++round) swarm_->tick(kDt);
  EXPECT_DOUBLE_EQ(swarm_->progress(1), 0.0);
  EXPECT_EQ(ledger_->total_uploaded_mb(0), 0.0);
}

TEST_F(SwarmTest, SlowUploaderBoundsThroughput) {
  build(2, /*size_mb=*/10, /*up_kbps=*/128.0);  // 0.125 MB/s seed
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  // 10 MB at 0.125 MB/s = 80 s = 8 rounds minimum.
  int rounds = run_until_complete(1);
  EXPECT_GE(rounds, 8);
  EXPECT_TRUE(swarm_->has_completed(1));
}

// ---- streaming workload ------------------------------------------------------

TEST(StreamingSpec, ParseOnOffAndKeys) {
  StreamingConfig s;
  ASSERT_TRUE(parse_streaming_spec("off", s, nullptr));
  EXPECT_FALSE(s.enabled);
  ASSERT_TRUE(parse_streaming_spec("on", s, nullptr));
  EXPECT_TRUE(s.enabled);
  std::string error;
  ASSERT_TRUE(parse_streaming_spec("window=4,startup=2,kbps=256", s, &error))
      << error;
  EXPECT_TRUE(s.enabled);  // a key=value list implies "on"
  EXPECT_EQ(s.window, 4u);
  EXPECT_EQ(s.startup_pieces, 2u);
  EXPECT_DOUBLE_EQ(s.playback_kbps, 256.0);
}

TEST(StreamingSpec, ParseRejectsBadKeysAndRanges) {
  StreamingConfig s;
  std::string error;
  EXPECT_FALSE(parse_streaming_spec("bogus=1", s, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_FALSE(parse_streaming_spec("window=0", s, nullptr));
  EXPECT_FALSE(parse_streaming_spec("startup=0", s, nullptr));
  EXPECT_FALSE(parse_streaming_spec("kbps=0", s, nullptr));
  EXPECT_FALSE(s.enabled);  // a failed parse leaves the config off
}

TEST(StreamingSpec, DescribeNamesTheKnobs) {
  EXPECT_EQ(describe(StreamingConfig{}), "off");
  StreamingConfig s;
  s.enabled = true;
  s.window = 4;
  EXPECT_NE(describe(s).find("window=4"), std::string::npos);
}

class StreamingSwarmTest : public SwarmTest {
 protected:
  void build_streaming(std::size_t n_peers, const StreamingConfig& s,
                       std::int64_t size_mb = 10, double up_kbps = 1024.0) {
    build(n_peers, size_mb, up_kbps);
    swarm_ = std::make_unique<Swarm>(spec_, peers_, *ledger_, *bandwidth_,
                                     util::Rng(7), s);
  }
};

TEST_F(StreamingSwarmTest, FastLinkPlaysEveryPieceOnTime) {
  StreamingConfig s;
  s.enabled = true;  // defaults: window 8, startup 4, 512 kbps playback
  build_streaming(2, s);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  run_until_complete(1);
  // Playback (10 pieces at ~16 s each) outlives the download; let the
  // player drain.
  for (int round = 0; round < 40; ++round) swarm_->tick(kDt);
  const StreamingTotals& t = swarm_->streaming_totals();
  EXPECT_EQ(t.started, 1u);
  EXPECT_EQ(t.finished, 1u);
  EXPECT_EQ(t.pieces_on_time, 10u);
  EXPECT_EQ(t.deadline_misses, 0u);
  EXPECT_EQ(swarm_->playback_pos(1), 10u);
}

TEST_F(StreamingSwarmTest, ConstrainedBandwidthMissesDeadlines) {
  StreamingConfig s;
  s.enabled = true;
  s.window = 4;
  s.startup_pieces = 2;
  s.playback_kbps = 8192.0;  // ~1 s per piece: the player outruns the link
  build_streaming(2, s, /*size_mb=*/10, /*up_kbps=*/32.0);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  for (int round = 0; round < 200; ++round) swarm_->tick(kDt);
  const StreamingTotals& t = swarm_->streaming_totals();
  EXPECT_EQ(t.started, 1u);
  EXPECT_EQ(t.finished, 1u);
  EXPECT_GT(t.deadline_misses, 0u);
  // Stall-free skip model: every piece is either on time or skipped.
  EXPECT_EQ(t.pieces_on_time + t.deadline_misses, 10u);
  // Skipped pieces stay fetchable; the download itself still completes.
  EXPECT_TRUE(swarm_->has_completed(1));
}

TEST_F(StreamingSwarmTest, SeedsNeverStartPlayback) {
  StreamingConfig s;
  s.enabled = true;
  build_streaming(2, s);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  for (int round = 0; round < 5; ++round) swarm_->tick(kDt);
  EXPECT_EQ(swarm_->playback_pos(0), 10u);  // a seed's player is done
  EXPECT_LE(swarm_->streaming_totals().started, 1u);  // only the leecher
}

TEST_F(StreamingSwarmTest, StartupBufferGatesPlayback) {
  StreamingConfig s;
  s.enabled = true;
  s.startup_pieces = 4;
  s.playback_kbps = 8192.0;
  // 0.25 MB per 10 s round: the 4-piece startup buffer takes ~160 s.
  build_streaming(2, s, /*size_mb=*/10, /*up_kbps=*/25.6);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  for (int round = 0; round < 8; ++round) swarm_->tick(kDt);
  // Two pieces in: playback has not begun, nothing consumed or missed.
  EXPECT_EQ(swarm_->streaming_totals().started, 0u);
  EXPECT_EQ(swarm_->streaming_totals().deadline_misses, 0u);
  EXPECT_EQ(swarm_->playback_pos(1), 0u);
}

TEST_F(StreamingSwarmTest, DisabledStreamingLeavesTheDownloadWorkloadAlone) {
  // Same seed, same swarm, streaming off both explicitly and by default:
  // ledger traffic must be identical tick for tick (the inert-when-off
  // contract at the swarm level).
  build(2);
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  std::vector<double> plain;
  for (int round = 0; round < 30; ++round) {
    swarm_->tick(kDt);
    plain.push_back(ledger_->uploaded_mb(0, 1));
  }
  build_streaming(2, StreamingConfig{});  // enabled = false
  swarm_->add_member(0, true);
  swarm_->add_member(1, false);
  for (int round = 0; round < 30; ++round) {
    swarm_->tick(kDt);
    EXPECT_DOUBLE_EQ(ledger_->uploaded_mb(0, 1),
                     plain[static_cast<std::size_t>(round)])
        << round;
  }
  EXPECT_EQ(swarm_->streaming_totals().started, 0u);
}

}  // namespace
}  // namespace tribvote::bt
