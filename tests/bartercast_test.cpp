#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "attack/front_peer.hpp"
#include "bartercast/experience.hpp"
#include "bartercast/maxflow.hpp"
#include "bartercast/protocol.hpp"
#include "bartercast/subjective_graph.hpp"
#include "bt/ledger.hpp"
#include "util/rng.hpp"

namespace tribvote::bartercast {
namespace {

TEST(SubjectiveGraph, DirectEdgesAreAuthoritative) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 10.0, 100);
  EXPECT_DOUBLE_EQ(g.edge_mb(1, 2), 10.0);
  // Gossip cannot override a direct observation, however fresh.
  g.merge_gossip(BarterRecord{1, 2, 999.0, 200});
  EXPECT_DOUBLE_EQ(g.edge_mb(1, 2), 10.0);
  // But the owner can refresh its own observation.
  g.update_direct(1, 2, 15.0, 300);
  EXPECT_DOUBLE_EQ(g.edge_mb(1, 2), 15.0);
}

TEST(SubjectiveGraph, FreshestGossipWins) {
  SubjectiveGraph g;
  g.merge_gossip(BarterRecord{1, 2, 5.0, 100});
  g.merge_gossip(BarterRecord{1, 2, 8.0, 200});
  EXPECT_DOUBLE_EQ(g.edge_mb(1, 2), 8.0);
  g.merge_gossip(BarterRecord{1, 2, 3.0, 150});  // stale
  EXPECT_DOUBLE_EQ(g.edge_mb(1, 2), 8.0);
}

TEST(SubjectiveGraph, RejectsMalformedRecords) {
  SubjectiveGraph g;
  g.merge_gossip(BarterRecord{3, 3, 5.0, 1});   // self-loop
  g.merge_gossip(BarterRecord{1, 2, -4.0, 1});  // negative
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(SubjectiveGraph, EdgeQueries) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 10.0, 1);
  g.update_direct(3, 2, 7.0, 1);
  g.update_direct(2, 4, 2.0, 1);
  const auto out = g.out_edges(2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 4u);
  const auto in = g.in_edges(2);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_mb(9, 9), 0.0);
  EXPECT_TRUE(g.out_edges(42).empty());
}

TEST(SubjectiveGraph, ClaimedUploadSums) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 10.0, 1);
  g.update_direct(1, 3, 5.0, 1);
  EXPECT_DOUBLE_EQ(g.claimed_upload_mb(1), 15.0);
  EXPECT_DOUBLE_EQ(g.claimed_upload_mb(2), 0.0);
}

TEST(MaxFlow, DirectEdgeOnly) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 12.0, 1);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 2, 1), 12.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 2, 2), 12.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 2, 1, 2), 0.0);  // direction matters
}

TEST(MaxFlow, TwoHopBottleneck) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 10.0, 1);
  g.update_direct(2, 3, 4.0, 1);
  // 1 -> 2 -> 3 bottlenecked at 4.
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 3, 2), 4.0);
  // One hop cannot reach.
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 3, 1), 0.0);
}

TEST(MaxFlow, ParallelPathsSum) {
  SubjectiveGraph g;
  g.update_direct(1, 4, 1.0, 1);  // direct
  g.update_direct(1, 2, 5.0, 1);
  g.update_direct(2, 4, 3.0, 1);  // via 2: min(5,3)=3
  g.update_direct(1, 3, 2.0, 1);
  g.update_direct(3, 4, 9.0, 1);  // via 3: min(2,9)=2
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 4, 2), 6.0);
}

TEST(MaxFlow, SelfAndUnknownNodes) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 5.0, 1);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 1, 2), 0.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 7, 8, 2), 0.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 2, 0), 0.0);
}

TEST(MaxFlow, LongerBoundUsesDeeperPaths) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 5.0, 1);
  g.update_direct(2, 3, 5.0, 1);
  g.update_direct(3, 4, 5.0, 1);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 4, 2), 0.0);
  EXPECT_DOUBLE_EQ(max_flow(g, 1, 4, 3), 5.0);
}

// Property: on random graphs, the generic Edmonds–Karp (bound >= 2 via the
// EK path) agrees with the closed form used for bound == 2.
class MaxFlowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowPropertyTest, ClosedFormMatchesEkOnTwoHopSubgraph) {
  util::Rng rng(GetParam());
  SubjectiveGraph g;
  constexpr PeerId kNodes = 8;
  for (int e = 0; e < 20; ++e) {
    const auto a = static_cast<PeerId>(rng.next_below(kNodes));
    const auto b = static_cast<PeerId>(rng.next_below(kNodes));
    if (a == b) continue;
    g.update_direct(a, b, rng.next_double(0.5, 20.0), 1);
  }
  for (PeerId s = 0; s < kNodes; ++s) {
    for (PeerId t = 0; t < kNodes; ++t) {
      if (s == t) continue;
      // Closed form (bound 2).
      const double closed = max_flow(g, s, t, 2);
      // Reference: direct + sum of per-intermediary bottlenecks.
      double reference = g.edge_mb(s, t);
      for (PeerId k = 0; k < kNodes; ++k) {
        if (k == s || k == t) continue;
        const double a = g.edge_mb(s, k);
        const double b = g.edge_mb(k, t);
        if (a > 0 && b > 0) reference += std::min(a, b);
      }
      EXPECT_NEAR(closed, reference, 1e-9) << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MaxFlowPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

class BarterAgentTest : public ::testing::Test {
 protected:
  BarterAgentTest() : ledger_(6) {}
  bt::Ledger ledger_;
};

TEST_F(BarterAgentTest, OutgoingRecordsAreOwnDirectTransfers) {
  ledger_.add_transfer(0, 1, 10.0 * 1024 * 1024);
  ledger_.add_transfer(2, 0, 5.0 * 1024 * 1024);
  ledger_.add_transfer(2, 3, 99.0 * 1024 * 1024);  // not adjacent to 0
  BarterAgent agent(0, BarterConfig{});
  std::vector<BarterRecord> records;
  agent.outgoing_records(ledger_, 100, records);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.from == 0 || r.to == 0);
    EXPECT_EQ(r.reported_at, 100);
  }
}

TEST_F(BarterAgentTest, MessageCapKeepsLargest) {
  BarterConfig config;
  config.max_records_per_message = 2;
  for (PeerId p = 1; p < 6; ++p) {
    ledger_.add_transfer(0, p, static_cast<double>(p) * 1024 * 1024);
  }
  BarterAgent agent(0, config);
  std::vector<BarterRecord> records;
  agent.outgoing_records(ledger_, 1, records);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].mb, 5.0);
  EXPECT_DOUBLE_EQ(records[1].mb, 4.0);
}

TEST_F(BarterAgentTest, ReceiveDropsNonAdjacentClaims) {
  BarterAgent agent(0, BarterConfig{});
  // Sender 1 claims a transfer between 2 and 3 — hearsay, dropped.
  agent.receive(1, {BarterRecord{2, 3, 50.0, 1}});
  EXPECT_DOUBLE_EQ(agent.graph().edge_mb(2, 3), 0.0);
  // Claims involving the sender are accepted.
  agent.receive(1, {BarterRecord{1, 4, 50.0, 1}});
  EXPECT_DOUBLE_EQ(agent.graph().edge_mb(1, 4), 50.0);
}

TEST_F(BarterAgentTest, ReceiveIgnoresClaimsAboutSelf) {
  BarterAgent agent(0, BarterConfig{});
  // Sender 5 claims it uploaded 500 MB to us — we know it didn't (no
  // direct edge in our ledger), so the claim is discarded and its
  // contribution stays zero.
  agent.receive(5, {BarterRecord{5, 0, 500.0, 1}});
  EXPECT_DOUBLE_EQ(agent.graph().edge_mb(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(agent.contribution_of(5), 0.0);
}

TEST_F(BarterAgentTest, ContributionUsesIndirectPaths) {
  BarterAgent agent(0, BarterConfig{});
  ledger_.add_transfer(2, 0, 8.0 * 1024 * 1024);  // 2 uploaded 8MB to me
  agent.sync_direct(ledger_, 1);
  EXPECT_NEAR(agent.contribution_of(2), 8.0, 1e-9);
  // 3 uploaded to 2 (learned via gossip from 2); flow 3 -> 2 -> 0.
  agent.receive(2, {BarterRecord{3, 2, 6.0, 2}});
  EXPECT_NEAR(agent.contribution_of(3), 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(agent.contribution_of(0), 0.0);  // self
}

TEST_F(BarterAgentTest, SyncIsIncrementalButComplete) {
  BarterAgent agent(0, BarterConfig{});
  ledger_.add_transfer(1, 0, 3.0 * 1024 * 1024);
  agent.sync_direct(ledger_, 1);
  EXPECT_NEAR(agent.contribution_of(1), 3.0, 1e-9);
  // More data arrives; version bump forces a refresh.
  ledger_.add_transfer(1, 0, 4.0 * 1024 * 1024);
  agent.sync_direct(ledger_, 2);
  EXPECT_NEAR(agent.contribution_of(1), 7.0, 1e-9);
}

TEST_F(BarterAgentTest, SyncAfterAnUnsyncedReportAppliesTheWholeView) {
  // A report fetches the view without syncing it, so the next sync may not
  // skip the records that view already held.
  ledger_.add_transfer(1, 0, 3.0 * 1024 * 1024);
  BarterAgent agent(0, BarterConfig{});
  std::vector<BarterRecord> records;
  agent.outgoing_records(ledger_, 1, records);
  EXPECT_EQ(records.size(), 1u);
  ledger_.add_transfer(2, 0, 5.0 * 1024 * 1024);
  agent.sync_direct(ledger_, 2);
  EXPECT_DOUBLE_EQ(agent.graph().edge_mb(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(agent.graph().edge_mb(2, 0), 5.0);
}

TEST(ExperienceFunction, ThresholdSemantics) {
  bt::Ledger ledger(3);
  BarterAgent agent(0, BarterConfig{});
  ledger.add_transfer(1, 0, 5.0 * 1024 * 1024);
  agent.sync_direct(ledger, 1);
  ExperienceFunction exp5(agent, 5.0);
  ExperienceFunction exp6(agent, 6.0);
  EXPECT_TRUE(exp5(1));    // exactly at threshold: experienced
  EXPECT_FALSE(exp6(1));
  EXPECT_FALSE(exp5(2));   // no contribution at all
}

TEST(AdaptiveThreshold, RaisesOnDispersionAndDecays) {
  AdaptiveThresholdParams params;
  params.t_min = 0.0;
  params.d_max = 0.4;
  AdaptiveThreshold at(params);
  EXPECT_DOUBLE_EQ(at.threshold_mb(), 0.0);
  // Calm: stays at the floor.
  at.observe_dispersion(0.1);
  EXPECT_DOUBLE_EQ(at.threshold_mb(), 0.0);
  // Attack-like dispersion: threshold climbs.
  at.observe_dispersion(0.8);
  const double raised1 = at.threshold_mb();
  EXPECT_GT(raised1, 0.0);
  at.observe_dispersion(0.8);
  EXPECT_GT(at.threshold_mb(), raised1);
  // Calm again: decays back toward the floor.
  double prev = at.threshold_mb();
  for (int i = 0; i < 50; ++i) {
    at.observe_dispersion(0.0);
    EXPECT_LE(at.threshold_mb(), prev);
    prev = at.threshold_mb();
  }
  EXPECT_DOUBLE_EQ(at.threshold_mb(), 0.0);
}

TEST(AdaptiveThreshold, RespectsCap) {
  AdaptiveThresholdParams params;
  params.t_max = 10.0;
  AdaptiveThreshold at(params);
  for (int i = 0; i < 30; ++i) at.observe_dispersion(1.0);
  EXPECT_DOUBLE_EQ(at.threshold_mb(), 10.0);
}

TEST(SubjectiveGraph, VersionBumpsExactlyOnFlowRelevantMutations) {
  SubjectiveGraph g;
  EXPECT_EQ(g.version(), 0u);
  g.update_direct(1, 2, 10.0, 100);  // new edge
  EXPECT_EQ(g.version(), 1u);
  g.update_direct(1, 2, 10.0, 200);  // unchanged value: no bump
  EXPECT_EQ(g.version(), 1u);
  g.update_direct(1, 2, 12.0, 300);  // value change
  EXPECT_EQ(g.version(), 2u);
  g.merge_gossip(BarterRecord{1, 2, 999.0, 400});  // loses to direct pin
  EXPECT_EQ(g.version(), 2u);
  g.merge_gossip(BarterRecord{3, 4, 5.0, 100});  // new gossip edge
  EXPECT_EQ(g.version(), 3u);
  g.merge_gossip(BarterRecord{3, 4, 5.0, 150});  // timestamp-only refresh
  EXPECT_EQ(g.version(), 3u);
  g.merge_gossip(BarterRecord{3, 4, 2.0, 50});  // stale report
  EXPECT_EQ(g.version(), 3u);
  g.merge_gossip(BarterRecord{3, 4, 7.0, 200});  // fresher, new value
  EXPECT_EQ(g.version(), 4u);
}

TEST(SubjectiveGraph, CsrSnapshotMatchesEdgeQueries) {
  SubjectiveGraph g;
  g.update_direct(5, 1, 10.0, 1);
  g.update_direct(1, 5, 3.0, 1);
  g.merge_gossip(BarterRecord{2, 5, 7.0, 1});
  const CsrSnapshot& snap = g.csr();
  EXPECT_EQ(snap.node_count(), 3u);
  EXPECT_EQ(snap.built_version, g.version());
  for (PeerId a : {1u, 2u, 5u}) {
    for (PeerId b : {1u, 2u, 5u}) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(snap.cap(snap.index_of(a), snap.index_of(b)),
                       g.edge_mb(a, b));
    }
  }
  EXPECT_EQ(snap.index_of(99), CsrSnapshot::kNoNode);
  // A mutation invalidates and rebuilds lazily.
  g.update_direct(5, 2, 4.0, 2);
  const CsrSnapshot& snap2 = g.csr();
  EXPECT_EQ(snap2.built_version, g.version());
  EXPECT_DOUBLE_EQ(snap2.cap(snap2.index_of(5), snap2.index_of(2)), 4.0);
}

TEST(SubjectiveGraph, DeltaCheckSeparatesRelevantFromIrrelevant) {
  SubjectiveGraph g;
  g.update_direct(1, 0, 5.0, 1);
  const std::uint64_t v = g.version();
  EXPECT_EQ(g.deltas_since(v, 1, 0), SubjectiveGraph::DeltaCheck::kUnaffected);
  // Edge (2, 3) lies on no hop-≤2 path 1 → 0.
  g.merge_gossip(BarterRecord{2, 3, 9.0, 1});
  EXPECT_EQ(g.deltas_since(v, 1, 0), SubjectiveGraph::DeltaCheck::kUnaffected);
  // But it is relevant to 2 → 0 (source side) and 1 → 3 (sink side).
  EXPECT_EQ(g.deltas_since(v, 2, 0), SubjectiveGraph::DeltaCheck::kAffected);
  EXPECT_EQ(g.deltas_since(v, 1, 3), SubjectiveGraph::DeltaCheck::kAffected);
}

TEST_F(BarterAgentTest, ContributionCacheHitsRevalidatesAndInvalidates) {
  BarterAgent agent(0, BarterConfig{});
  ledger_.add_transfer(2, 0, 8.0 * 1024 * 1024);
  agent.sync_direct(ledger_, 1);
  agent.receive(2, {BarterRecord{3, 2, 6.0, 2}});

  EXPECT_NEAR(agent.contribution_of(3), 6.0, 1e-9);
  const auto after_first = agent.cache_stats();
  EXPECT_EQ(after_first.misses, 1u);

  // Unchanged graph: pure hit.
  EXPECT_NEAR(agent.contribution_of(3), 6.0, 1e-9);
  EXPECT_EQ(agent.cache_stats().hits, after_first.hits + 1);

  // Gossip about an unrelated pair: stale version, but the delta log proves
  // the 3 → 0 flow untouched — revalidated, not recomputed.
  agent.receive(4, {BarterRecord{4, 5, 50.0, 3}});
  EXPECT_NEAR(agent.contribution_of(3), 6.0, 1e-9);
  EXPECT_EQ(agent.cache_stats().revalidations, after_first.revalidations + 1);
  EXPECT_EQ(agent.cache_stats().misses, after_first.misses);

  // A record on 3's out-edges is relevant: recomputed, new value visible.
  agent.receive(2, {BarterRecord{3, 2, 1.0, 9}});
  EXPECT_NEAR(agent.contribution_of(3), 1.0, 1e-9);
  EXPECT_EQ(agent.cache_stats().misses, after_first.misses + 1);
}

TEST_F(BarterAgentTest, CachedValueRespectsDirectPinning) {
  BarterAgent agent(0, BarterConfig{});
  ledger_.add_transfer(2, 0, 8.0 * 1024 * 1024);
  agent.sync_direct(ledger_, 1);
  EXPECT_NEAR(agent.contribution_of(2), 8.0, 1e-9);
  // Fresher gossip claiming a bigger 2 → 0 upload is ignored (claims about
  // self carry no weight), so the cached value must remain correct.
  agent.receive(2, {BarterRecord{2, 0, 500.0, 99}});
  EXPECT_NEAR(agent.contribution_of(2), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(agent.contribution_of(2),
                   max_flow(agent.graph(), 2, 0, 2));
}

TEST_F(BarterAgentTest, ContributionColumnMatchesPerQueryBitExactly) {
  BarterAgent agent(0, BarterConfig{});
  ledger_.add_transfer(2, 0, 8.0 * 1024 * 1024);
  ledger_.add_transfer(4, 0, 2.5 * 1024 * 1024);
  agent.sync_direct(ledger_, 1);
  agent.receive(2, {BarterRecord{3, 2, 6.0, 2}, BarterRecord{5, 2, 4.0, 2}});
  agent.receive(4, {BarterRecord{3, 4, 1.5, 3}});

  const std::vector<double>& column = agent.contribution_column(6);
  ASSERT_EQ(column.size(), 6u);
  for (PeerId j = 0; j < 6; ++j) {
    EXPECT_DOUBLE_EQ(column[j], agent.contribution_of(j)) << "j=" << j;
  }
  // The column is cached per graph version...
  const auto* before = column.data();
  EXPECT_EQ(agent.contribution_column(6).data(), before);
  // ...and rebuilt (with correct values) after any mutation.
  agent.receive(2, {BarterRecord{3, 2, 9.0, 5}});
  const std::vector<double>& fresh = agent.contribution_column(6);
  EXPECT_DOUBLE_EQ(fresh[3], agent.contribution_of(3));
  // min(9, 8) through 2 plus min(1.5, 2.5) through 4.
  EXPECT_NEAR(fresh[3], 9.5, 1e-9);
}

TEST(FrontPeerAttack, MaxFlowResistsWhereNaiveFails) {
  // Honest node 0; colluders 3,4,5 fabricate huge intra-clique transfers.
  // Colluder 3 ("the mole") genuinely uploaded only 1 MB to node 0.
  bt::Ledger ledger(6);
  ledger.add_transfer(3, 0, 1.0 * 1024 * 1024);

  BarterAgent honest(0, BarterConfig{});
  honest.sync_direct(ledger, 1);

  attack::FrontPeerBarterAgent mole(3, BarterConfig{}, {3, 4, 5},
                                    /*fake_mb=*/1000.0);
  std::vector<BarterRecord> records;
  mole.outgoing_records(ledger, 2, records);
  honest.receive(3, records);
  attack::FrontPeerBarterAgent shill(4, BarterConfig{}, {3, 4, 5}, 1000.0);
  shill.outgoing_records(ledger, 3, records);
  honest.receive(4, records);

  // Naive metric (sum of claimed upload) is wildly inflated...
  EXPECT_GE(honest.naive_contribution_of(4), 1000.0);
  // ...but max-flow throttles colluder 4 at the genuine 1 MB edge 3 -> 0.
  EXPECT_LE(honest.contribution_of(4), 1.0 + 1e-9);
  // And the mole itself cannot claim more than its genuine contribution
  // plus flow through its clique, all bottlenecked at real edges into 0.
  EXPECT_LE(honest.contribution_of(3), 1.0 + 1e-9);
}

// ---- differential check against a nested-map reference -------------------
//
// NestedMapGraph is the map-of-maps SubjectiveGraph the flat rows replaced,
// kept here only as an executable specification: same merge rules, same
// version and delta-log semantics, sorted two-hop terms and a sorted CSR
// build. The flat graph must agree with it on every observable.

class NestedMapGraph {
 public:
  void update_direct(PeerId from, PeerId to, double mb, Time now) {
    auto& row = out_[from];
    const auto it = row.find(to);
    if (it != row.end() && it->second.direct && it->second.mb == mb) return;
    put(from, to, Info{mb, now, true});
  }

  void merge_gossip(const BarterRecord& r) {
    if (r.from == r.to || r.mb < 0) return;
    const auto row = out_.find(r.from);
    if (row != out_.end()) {
      const auto it = row->second.find(r.to);
      if (it != row->second.end()) {
        if (it->second.direct) return;
        if (it->second.reported_at >= r.reported_at) return;
        if (it->second.mb == r.mb) {
          it->second.reported_at = r.reported_at;
          return;
        }
      }
    }
    put(r.from, r.to, Info{r.mb, r.reported_at, false});
  }

  [[nodiscard]] double edge_mb(PeerId from, PeerId to) const {
    const auto row = out_.find(from);
    if (row == out_.end()) return 0.0;
    const auto it = row->second.find(to);
    return it == row->second.end() ? 0.0 : it->second.mb;
  }

  /// Positive-weight neighbours of `peer`, as a set.
  [[nodiscard]] std::set<std::pair<PeerId, double>> edges(
      PeerId peer, bool outgoing) const {
    std::set<std::pair<PeerId, double>> result;
    const auto& side = outgoing ? out_ : in_;
    const auto row = side.find(peer);
    if (row == side.end()) return result;
    for (const auto& [other, info] : row->second) {
      if (info.mb > 0) result.emplace(other, info.mb);
    }
    return result;
  }

  /// Σ of `peer`'s out-edge weights in ascending target order.
  [[nodiscard]] double claimed_upload_mb(PeerId peer) const {
    const auto row = out_.find(peer);
    if (row == out_.end()) return 0.0;
    std::vector<std::pair<PeerId, double>> sorted;
    for (const auto& [to, info] : row->second) sorted.emplace_back(to, info.mb);
    std::sort(sorted.begin(), sorted.end());
    double total = 0;
    for (const auto& e : sorted) total += e.second;
    return total;
  }

  [[nodiscard]] std::size_t edge_count() const { return n_edges_; }
  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] SubjectiveGraph::DeltaCheck deltas_since(
      std::uint64_t since, PeerId source, PeerId sink) const {
    if (since >= version_) return SubjectiveGraph::DeltaCheck::kUnaffected;
    if (since < base_) return SubjectiveGraph::DeltaCheck::kUnknown;
    for (std::size_t k = since - base_; k < log_.size(); ++k) {
      if (log_[k].first == source || log_[k].second == sink) {
        return SubjectiveGraph::DeltaCheck::kAffected;
      }
    }
    return SubjectiveGraph::DeltaCheck::kUnaffected;
  }

  [[nodiscard]] SubjectiveGraph::DeltaCheck affected_sources_since(
      std::uint64_t since, PeerId sink, std::vector<PeerId>& sources) const {
    sources.clear();
    if (since >= version_) return SubjectiveGraph::DeltaCheck::kUnaffected;
    if (since < base_) return SubjectiveGraph::DeltaCheck::kUnknown;
    for (std::size_t k = since - base_; k < log_.size(); ++k) {
      if (log_[k].second == sink) return SubjectiveGraph::DeltaCheck::kAffected;
      sources.push_back(log_[k].first);
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    return SubjectiveGraph::DeltaCheck::kUnaffected;
  }

  [[nodiscard]] double two_hop_flow(PeerId source, PeerId sink,
                                    int max_path_edges) const {
    if (source == sink || max_path_edges <= 0) return 0.0;
    double flow = edge_mb(source, sink);
    if (max_path_edges < 2) return flow;
    const auto out_row = out_.find(source);
    const auto in_row = in_.find(sink);
    if (out_row == out_.end() || in_row == in_.end()) return flow;
    std::vector<std::pair<PeerId, double>> terms;
    for (const auto& [k, info] : out_row->second) {
      if (k == sink || k == source || info.mb <= 0) continue;
      const auto cap = in_row->second.find(k);
      if (cap == in_row->second.end() || cap->second.mb <= 0) continue;
      terms.emplace_back(k, std::min(info.mb, cap->second.mb));
    }
    std::sort(terms.begin(), terms.end());
    for (const auto& term : terms) flow += term.second;
    return flow;
  }

  /// The CSR snapshot built the map way: collect, sort the nodes, count,
  /// scatter, then sort every row.
  [[nodiscard]] CsrSnapshot csr() const {
    CsrSnapshot snap;
    for (const auto& [p, row] : out_) snap.peer_of.push_back(p);
    for (const auto& [p, row] : in_) {
      if (!out_.contains(p)) snap.peer_of.push_back(p);
    }
    std::sort(snap.peer_of.begin(), snap.peer_of.end());
    const auto n = static_cast<std::uint32_t>(snap.peer_of.size());
    std::unordered_map<PeerId, std::uint32_t> index;
    for (std::uint32_t i = 0; i < n; ++i) index[snap.peer_of[i]] = i;
    std::vector<std::vector<std::pair<std::uint32_t, double>>> out_rows(n);
    std::vector<std::vector<std::pair<std::uint32_t, double>>> in_rows(n);
    for (const auto& [from, row] : out_) {
      for (const auto& [to, info] : row) {
        if (info.mb <= 0) continue;
        out_rows[index.at(from)].emplace_back(index.at(to), info.mb);
        in_rows[index.at(to)].emplace_back(index.at(from), info.mb);
      }
    }
    auto flatten = [n](auto& rows, std::vector<std::uint32_t>& begin,
                       std::vector<std::uint32_t>& nbr,
                       std::vector<double>& cap) {
      begin.assign(1, 0);
      for (std::uint32_t u = 0; u < n; ++u) {
        std::sort(rows[u].begin(), rows[u].end());
        for (const auto& [v, c] : rows[u]) {
          nbr.push_back(v);
          cap.push_back(c);
        }
        begin.push_back(static_cast<std::uint32_t>(nbr.size()));
      }
    };
    flatten(out_rows, snap.out_begin, snap.out_target, snap.out_cap);
    flatten(in_rows, snap.in_begin, snap.in_source, snap.in_cap);
    snap.built_version = version_;
    return snap;
  }

 private:
  struct Info {
    double mb = 0;
    Time reported_at = 0;
    bool direct = false;
  };
  static constexpr std::size_t kLogCapacity = 256;

  void put(PeerId from, PeerId to, const Info& info) {
    const auto [it, inserted] = out_[from].insert_or_assign(to, info);
    const bool mb_changed = inserted || in_[to][from].mb != info.mb;
    in_[to].insert_or_assign(from, info);
    if (inserted) ++n_edges_;
    if (!mb_changed) return;
    ++version_;
    if (log_.size() >= 2 * kLogCapacity) {
      log_.erase(log_.begin(), log_.begin() + kLogCapacity);
      base_ += kLogCapacity;
    }
    log_.emplace_back(from, to);
  }

  std::unordered_map<PeerId, std::unordered_map<PeerId, Info>> out_;
  std::unordered_map<PeerId, std::unordered_map<PeerId, Info>> in_;
  std::size_t n_edges_ = 0;
  std::uint64_t version_ = 0;
  std::vector<std::pair<PeerId, PeerId>> log_;
  std::uint64_t base_ = 0;
};

std::set<std::pair<PeerId, double>> as_set(
    const std::vector<std::pair<PeerId, double>>& edges) {
  return {edges.begin(), edges.end()};
}

void expect_same_csr(const CsrSnapshot& a, const CsrSnapshot& b) {
  EXPECT_EQ(a.built_version, b.built_version);
  EXPECT_EQ(a.peer_of, b.peer_of);
  EXPECT_EQ(a.out_begin, b.out_begin);
  EXPECT_EQ(a.out_target, b.out_target);
  EXPECT_EQ(a.out_cap, b.out_cap);
  EXPECT_EQ(a.in_begin, b.in_begin);
  EXPECT_EQ(a.in_source, b.in_source);
  EXPECT_EQ(a.in_cap, b.in_cap);
}

class FlatGraphDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatGraphDifferentialTest, MatchesNestedMapReference) {
  util::Rng rng(GetParam());
  SubjectiveGraph flat;
  NestedMapGraph ref;
  // Twelve dense ids plus two far ones, so rows are inserted out of order
  // and with gaps.
  const std::vector<PeerId> ids = {0, 1, 2,  3,  4,  5,   6,
                                   7, 8, 9, 10, 11, 900, 70000};
  const std::vector<double> volumes = {0.0, 1.0, 2.5, 4.0, 8.0};
  auto pick = [&] { return ids[rng.next_below(ids.size())]; };
  auto volume = [&] {
    return rng.next_below(3) == 0 ? rng.next_double(0.0, 16.0)
                                  : volumes[rng.next_below(volumes.size())];
  };
  std::vector<std::uint64_t> versions = {0};
  BarterRecord last{1, 2, 1.0, 1};
  Time now = 1;
  constexpr int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    now += static_cast<Time>(rng.next_below(3));
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 3) {
      // Direct observations are the owner's (peer 0) own transfers, as in
      // BarterAgent, so most pairs stay gossip-only.
      PeerId other = pick();
      while (other == 0) other = pick();
      const bool upload = rng.next_bool(0.5);
      const PeerId a = upload ? 0 : other;
      const PeerId b = upload ? other : 0;
      const double mb = volume();
      flat.update_direct(a, b, mb, now);
      ref.update_direct(a, b, mb, now);
    } else {
      BarterRecord r;
      if (kind == 9) {
        r = last;  // duplicate delivery
      } else {
        // Report times straddle `now`, so stale and equal-time records are
        // common; an occasional negative volume or self-loop is malformed.
        r = BarterRecord{pick(), pick(),
                         rng.next_below(50) == 0 ? -1.0 : volume(),
                         now - static_cast<Time>(rng.next_below(20))};
        last = r;
      }
      flat.merge_gossip(r);
      ref.merge_gossip(r);
    }
    if (rng.next_below(8) == 0) versions.push_back(flat.version());
    if (op % 97 != 0 && op != kOps - 1) continue;

    ASSERT_EQ(flat.version(), ref.version()) << "op " << op;
    ASSERT_EQ(flat.edge_count(), ref.edge_count()) << "op " << op;
    ASSERT_EQ(flat.node_count(), ref.node_count()) << "op " << op;
    std::vector<PeerId> got;
    std::vector<PeerId> want;
    for (const PeerId a : ids) {
      EXPECT_EQ(as_set(flat.out_edges(a)), ref.edges(a, true)) << a;
      EXPECT_EQ(as_set(flat.in_edges(a)), ref.edges(a, false)) << a;
      EXPECT_EQ(flat.claimed_upload_mb(a), ref.claimed_upload_mb(a)) << a;
      for (const PeerId b : ids) {
        EXPECT_EQ(flat.edge_mb(a, b), ref.edge_mb(a, b)) << a << "->" << b;
        for (const int bound : {1, 2}) {
          EXPECT_EQ(flat.two_hop_flow(a, b, bound),
                    ref.two_hop_flow(a, b, bound))
              << a << "->" << b << " bound " << bound;
        }
      }
      for (const std::uint64_t v : {versions[rng.next_below(versions.size())],
                                    versions.back()}) {
        const PeerId source = pick();
        EXPECT_EQ(flat.deltas_since(v, source, a),
                  ref.deltas_since(v, source, a));
        EXPECT_EQ(flat.affected_sources_since(v, a, got),
                  ref.affected_sources_since(v, a, want));
        EXPECT_EQ(got, want);
      }
      // The column covers ids below 12; the far ids must be skipped.
      for (const int bound : {1, 2}) {
        std::vector<double> column(12, 0.0);
        flat.two_hop_flow_column(a, bound, column);
        for (PeerId j = 0; j < column.size(); ++j) {
          EXPECT_EQ(column[j], j == a ? 0.0 : ref.two_hop_flow(j, a, bound))
              << j << "->" << a << " bound " << bound;
        }
      }
    }
    expect_same_csr(flat.csr(), ref.csr());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatGraphDifferentialTest,
                         ::testing::Values<std::uint64_t>(1, 2, 3));

TEST(SubjectiveGraph, FarIdsAllocateNothingProportionalToTheId) {
  SubjectiveGraph g;
  g.update_direct(1, 2, 3.0, 1);
  // Heap bytes in use before and after (glibc's allocator statistics).
  const std::size_t before = mallinfo2().uordblks;
  g.merge_gossip(BarterRecord{kInvalidPeer, 2, 5.0, 2});
  g.merge_gossip(BarterRecord{1, kInvalidPeer - 1, 7.0, 2});
  g.merge_gossip(BarterRecord{4'000'000'000u, kInvalidPeer, 1.0, 2});
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LT(after - std::min(after, before), std::size_t{4096});
  // The far records are ordinary edges, not dropped.
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_DOUBLE_EQ(g.edge_mb(kInvalidPeer, 2), 5.0);
  EXPECT_DOUBLE_EQ(g.two_hop_flow(1, 2, 2), 3.0);
  EXPECT_EQ(g.csr().node_count(), 5u);
}

}  // namespace
}  // namespace tribvote::bartercast

