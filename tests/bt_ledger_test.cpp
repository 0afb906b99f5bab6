// Contribution-ledger tests (bt/ledger.hpp).
//
//   * MapLedgerReference — property test: the sorted rows must read back
//     bit-identically from a hash-map-per-peer reference fed the same
//     random transfer stream, and a direct view comes out in row order.
//   * LedgerShardStress — a full scenario run's accounting and protocol
//     stats must not depend on the worker-shard count (run under TSan in
//     CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bt/ledger.hpp"
#include "core/runner.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {
namespace {

/// Canonical form of a direct view: sorted records (the reference's order
/// is its hash maps', content must match exactly).
std::vector<TransferRecord> canonical(std::vector<TransferRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  return records;
}

/// Every observable of the two ledgers must agree to the last bit.
template <class A, class B>
void expect_identical(const A& a, const B& b, std::size_t n) {
  ASSERT_EQ(a.peer_count(), n);
  ASSERT_EQ(b.peer_count(), n);
  for (PeerId p = 0; p < n; ++p) {
    EXPECT_EQ(a.total_uploaded_mb(p), b.total_uploaded_mb(p)) << "peer " << p;
    EXPECT_EQ(a.total_downloaded_mb(p), b.total_downloaded_mb(p))
        << "peer " << p;
    EXPECT_EQ(a.version(p), b.version(p)) << "peer " << p;
    const auto va = canonical(a.direct_view(p));
    const auto vb = canonical(b.direct_view(p));
    ASSERT_EQ(va.size(), vb.size()) << "peer " << p;
    for (std::size_t k = 0; k < va.size(); ++k) {
      EXPECT_EQ(va[k].from, vb[k].from);
      EXPECT_EQ(va[k].to, vb[k].to);
      EXPECT_EQ(va[k].mb, vb[k].mb)
          << "peer " << p << " record " << k << " (" << va[k].from << "->"
          << va[k].to << ")";
    }
  }
  for (PeerId from = 0; from < n; ++from) {
    for (PeerId to = 0; to < n; ++to) {
      EXPECT_EQ(a.uploaded_mb(from, to), b.uploaded_mb(from, to))
          << from << "->" << to;
    }
  }
}

/// The hash-map-per-peer ledger the sorted rows replaced, kept as a
/// reference: the same `+=` per pair, so every value must match bit-for-bit.
class NestedMapLedger {
 public:
  explicit NestedMapLedger(std::size_t n)
      : up_(n), down_(n), total_up_(n), total_down_(n), version_(n) {}

  void add_transfer(PeerId from, PeerId to, double bytes) {
    up_[from][to] += bytes;
    down_[to][from] += bytes;
    total_up_[from] += bytes;
    total_down_[to] += bytes;
    ++version_[from];
    ++version_[to];
  }

  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const {
    const auto it = up_[from].find(to);
    return it == up_[from].end() ? 0.0 : it->second / kMb;
  }
  [[nodiscard]] double total_uploaded_mb(PeerId peer) const {
    return total_up_[peer] / kMb;
  }
  [[nodiscard]] double total_downloaded_mb(PeerId peer) const {
    return total_down_[peer] / kMb;
  }
  [[nodiscard]] std::vector<TransferRecord> direct_view(
      PeerId p) const {
    std::vector<TransferRecord> records;
    for (const auto& [to, bytes] : up_[p]) {
      records.push_back(TransferRecord{p, to, bytes / kMb});
    }
    for (const auto& [from, bytes] : down_[p]) {
      records.push_back(TransferRecord{from, p, bytes / kMb});
    }
    return records;
  }
  [[nodiscard]] std::size_t peer_count() const noexcept {
    return up_.size();
  }
  [[nodiscard]] std::uint64_t version(PeerId peer) const {
    return version_[peer];
  }

 private:
  static constexpr double kMb = 1024.0 * 1024.0;
  std::vector<std::unordered_map<PeerId, double>> up_;
  std::vector<std::unordered_map<PeerId, double>> down_;
  std::vector<double> total_up_;
  std::vector<double> total_down_;
  std::vector<std::uint64_t> version_;
};

class MapLedgerReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapLedgerReference, SortedRowsMatchHashMapReference) {
  constexpr std::size_t kPeers = 40;
  util::Rng rng(GetParam());
  Ledger ledger(kPeers);
  NestedMapLedger ref(kPeers);
  for (std::size_t t = 0; t < 5000; ++t) {
    const auto from = static_cast<PeerId>(rng.next_below(kPeers));
    auto to = static_cast<PeerId>(rng.next_below(kPeers));
    if (to == from) to = static_cast<PeerId>((to + 1) % kPeers);
    const double bytes = rng.next_bool(0.5)
                             ? rng.next_double(1.0, 50.0) * 1024 * 1024
                             : rng.next_double(0.0, 1.0) * 1024;
    ledger.add_transfer(from, to, bytes);
    ref.add_transfer(from, to, bytes);
    if (t % 1000 == 999) expect_identical(ledger, ref, kPeers);
  }
  // The view comes out in row order: uploads by ascending target, then
  // downloads by ascending source.
  for (PeerId p = 0; p < kPeers; ++p) {
    const std::vector<TransferRecord> view = ledger.direct_view(p);
    const auto split = std::ranges::partition_point(
        view, [p](const TransferRecord& r) { return r.from == p; });
    EXPECT_TRUE(std::ranges::is_sorted(view.begin(), split, std::less<>{},
                                       &TransferRecord::to));
    EXPECT_TRUE(std::ranges::is_sorted(split, view.end(), std::less<>{},
                                       &TransferRecord::from));
    EXPECT_TRUE(std::all_of(split, view.end(), [p](const TransferRecord& r) {
      return r.to == p;
    }));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapLedgerReference,
                         ::testing::Values(1u, 2u, 3u));

/// Full-stack equivalence: a scenario run's accounting and protocol stats
/// must not depend on the shard count. At 4 shards the gossip rounds read
/// the ledger from every lane at once.
TEST(LedgerShardStress, RunnerShardCountsProduceIdenticalLedgers) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  const trace::Trace tr = trace::generate_trace(params, 5);

  const auto run = [&tr](std::size_t shards) {
    core::ScenarioConfig config;
    config.shards = shards;
    auto runner = std::make_unique<core::ScenarioRunner>(tr, config, 42);
    runner->run_until(tr.duration);
    return runner;
  };
  const auto serial = run(1);
  const auto sharded = run(4);
  EXPECT_EQ(serial->stats().downloads_completed,
            sharded->stats().downloads_completed);
  EXPECT_EQ(serial->stats().vote_exchanges, sharded->stats().vote_exchanges);
  EXPECT_EQ(serial->stats().votes_accepted, sharded->stats().votes_accepted);
  EXPECT_EQ(serial->stats().barter_exchanges,
            sharded->stats().barter_exchanges);
  expect_identical(serial->ledger(), sharded->ledger(), tr.peers.size());
  EXPECT_EQ(serial->collective_experience(5.0),
            sharded->collective_experience(5.0));
}

}  // namespace
}  // namespace tribvote::bt
