// Ledger backend tests (bt/ledger.hpp).
//
// Three layers:
//   * LedgerEquivalence — property tests: random transfer streams must read
//     back *bit-identically* from MapLedger and ShardedLogLedger, with
//     queries interleaved mid-stream (i.e. against uncompacted log tails)
//     and across forced compactions at tiny thresholds. MapLedger's sorted
//     rows are also checked against a hash-map reference.
//   * ShardedLogLedger unit behaviour — compaction triggers, flush, stats.
//   * LedgerShardStress — concurrent per-lane sink appends (plus readers
//     racing the buffered writes) merged at a barrier must equal a serial
//     replay; run under TSan in CI.
//   * Runner-level: a full scenario run produces the same accounting and
//     stats on both backends, at shard counts 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bt/ledger.hpp"
#include "bt/sharded_log_ledger.hpp"
#include "bt/transfer_ledger.hpp"
#include "core/runner.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {
namespace {

/// Canonical form of a direct view: sorted records (order is
/// backend-defined, content must match exactly).
std::vector<TransferRecord> canonical(std::vector<TransferRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  return records;
}

/// Every observable of the two views must agree to the last bit.
void expect_identical(const LedgerView& a, const LedgerView& b,
                      std::size_t n) {
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

/// The hash-map-per-peer ledger MapLedger's sorted rows replaced, kept as
/// a reference: the same `+=` per pair, so every value must match bit-for-bit.
class NestedMapLedger final : public LedgerView {
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

  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const override {
    const auto it = up_[from].find(to);
    return it == up_[from].end() ? 0.0 : it->second / kMb;
  }
  [[nodiscard]] double total_uploaded_mb(PeerId peer) const override {
    return total_up_[peer] / kMb;
  }
  [[nodiscard]] double total_downloaded_mb(PeerId peer) const override {
    return total_down_[peer] / kMb;
  }
  [[nodiscard]] std::vector<TransferRecord> direct_view(
      PeerId p) const override {
    std::vector<TransferRecord> records;
    for (const auto& [to, bytes] : up_[p]) {
      records.push_back(TransferRecord{p, to, bytes / kMb});
    }
    for (const auto& [from, bytes] : down_[p]) {
      records.push_back(TransferRecord{from, p, bytes / kMb});
    }
    return records;
  }
  [[nodiscard]] std::size_t peer_count() const noexcept override {
    return up_.size();
  }
  [[nodiscard]] std::uint64_t version(PeerId peer) const override {
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
  MapLedger map(kPeers);
  NestedMapLedger ref(kPeers);
  for (std::size_t t = 0; t < 5000; ++t) {
    const auto from = static_cast<PeerId>(rng.next_below(kPeers));
    auto to = static_cast<PeerId>(rng.next_below(kPeers));
    if (to == from) to = static_cast<PeerId>((to + 1) % kPeers);
    const double bytes = rng.next_bool(0.5)
                             ? rng.next_double(1.0, 50.0) * 1024 * 1024
                             : rng.next_double(0.0, 1.0) * 1024;
    map.add_transfer(from, to, bytes);
    ref.add_transfer(from, to, bytes);
    if (t % 1000 == 999) expect_identical(map, ref, kPeers);
  }
  // The view comes out in row order: uploads by ascending target, then
  // downloads by ascending source.
  for (PeerId p = 0; p < kPeers; ++p) {
    const std::vector<TransferRecord> view = map.direct_view(p);
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

class LedgerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerEquivalence, RandomStreamReadsBackIdentically) {
  constexpr std::size_t kPeers = 48;
  constexpr std::size_t kTransfers = 4000;
  util::Rng rng(GetParam());
  MapLedger map(kPeers);
  // Tiny threshold: the stream crosses many compaction boundaries, so
  // queries hit every mix of compacted rows and pending log tails.
  ShardedLogLedger sharded(kPeers, /*shards=*/4, /*compact_threshold=*/64);
  for (std::size_t t = 0; t < kTransfers; ++t) {
    const auto from = static_cast<PeerId>(rng.next_below(kPeers));
    auto to = static_cast<PeerId>(rng.next_below(kPeers));
    if (to == from) to = (to + 1) % kPeers;
    // Skewed pairs so the same pair accumulates repeatedly (the FP
    // order-sensitivity the bit-identity argument is about).
    const double bytes = rng.next_bool(0.5)
                             ? rng.next_double(1.0, 50.0) * 1024 * 1024
                             : rng.next_double(0.0, 1.0) * 1024;
    map.add_transfer(from, to, bytes);
    sharded.add_transfer(from, to, bytes);
    // Interleaved spot checks against the uncompacted tail.
    if (t % 97 == 0) {
      const auto p = static_cast<PeerId>(rng.next_below(kPeers));
      EXPECT_EQ(map.total_uploaded_mb(p), sharded.total_uploaded_mb(p));
      EXPECT_EQ(map.uploaded_mb(from, to), sharded.uploaded_mb(from, to));
      EXPECT_EQ(map.version(p), sharded.version(p));
    }
  }
  // Mid-stream full sweep with pending entries outstanding...
  expect_identical(map, sharded, kPeers);
  EXPECT_GT(sharded.stats().compactions, 0u);
  // ...and again after everything is compacted.
  sharded.flush();
  EXPECT_EQ(sharded.pending_entries(), 0u);
  expect_identical(map, sharded, kPeers);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerEquivalence,
                         ::testing::Values(1u, 7u, 42u, 20090525u));

TEST(LedgerEquivalence, ShardCountDoesNotChangeReads) {
  constexpr std::size_t kPeers = 32;
  util::Rng rng(11);
  ShardedLogLedger one(kPeers, 1, 128);
  ShardedLogLedger four(kPeers, 4, 128);
  ShardedLogLedger many(kPeers, 64, 128);  // more shards than busy peers
  for (std::size_t t = 0; t < 2000; ++t) {
    const auto from = static_cast<PeerId>(rng.next_below(kPeers));
    auto to = static_cast<PeerId>(rng.next_below(kPeers));
    if (to == from) to = (to + 1) % kPeers;
    const double bytes = rng.next_double(0.1, 10.0) * 1024 * 1024;
    one.add_transfer(from, to, bytes);
    four.add_transfer(from, to, bytes);
    many.add_transfer(from, to, bytes);
  }
  expect_identical(one, four, kPeers);
  expect_identical(one, many, kPeers);
}

TEST(ShardedLogLedger, CompactsAtThresholdAndOnFlush) {
  ShardedLogLedger ledger(8, /*shards=*/2, /*compact_threshold=*/4);
  // Peers 0 and 2 share shard 0: four appends to shard 0 trigger a compact.
  ledger.add_transfer(0, 2, 100.0);  // shard0: 2 entries
  EXPECT_EQ(ledger.pending_entries(), 2u);
  ledger.add_transfer(2, 0, 50.0);  // shard0 hits 4 -> compacts
  EXPECT_EQ(ledger.pending_entries(), 0u);
  EXPECT_EQ(ledger.stats().compactions, 1u);
  EXPECT_EQ(ledger.stats().compacted_entries, 4u);

  ledger.add_transfer(1, 3, 10.0);  // shard1: 2 entries, below threshold
  EXPECT_EQ(ledger.pending_entries(), 2u);
  ledger.flush();
  EXPECT_EQ(ledger.pending_entries(), 0u);
  EXPECT_EQ(ledger.stats().compactions, 2u);
  ledger.flush();  // clean flush is free
  EXPECT_EQ(ledger.stats().compactions, 2u);
  EXPECT_EQ(ledger.uploaded_mb(0, 2) * 1024 * 1024, 100.0);
  EXPECT_EQ(ledger.version(0), 2u);  // one up, one down entry
}

TEST(ShardedLogLedger, FactoryAndBackendNames) {
  const auto map = make_ledger(LedgerBackend::kMap, 4);
  const auto log = make_ledger(LedgerBackend::kShardedLog, 4, 2);
  map->add_transfer(0, 1, 1024.0);
  log->add_transfer(0, 1, 1024.0);
  EXPECT_EQ(map->uploaded_mb(0, 1), log->uploaded_mb(0, 1));
  EXPECT_NE(dynamic_cast<ShardedLogLedger*>(log.get()), nullptr);
  EXPECT_NE(dynamic_cast<MapLedger*>(map.get()), nullptr);
  EXPECT_STREQ(ledger_backend_name(LedgerBackend::kMap), "map");
  EXPECT_STREQ(ledger_backend_name(LedgerBackend::kShardedLog),
               "sharded_log");
  EXPECT_EQ(parse_ledger_backend("map"), LedgerBackend::kMap);
  EXPECT_EQ(parse_ledger_backend("sharded_log"), LedgerBackend::kShardedLog);
  EXPECT_EQ(parse_ledger_backend("bogus"), std::nullopt);
}

/// Concurrent lane-local appends, with readers racing the buffered writes,
/// then a serial merge — the shard-concurrency contract of the backend.
/// The reference is a serial replay in (lane, append order), which is what
/// merge_sinks() promises. Run under TSan in CI.
TEST(LedgerShardStress, ConcurrentSinkAppendsMatchSerialReplay) {
  constexpr std::size_t kPeers = 64;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kPerLane = 5000;
  constexpr int kRounds = 3;

  ShardedLogLedger sharded(kPeers, kLanes, /*compact_threshold=*/256);
  MapLedger reference(kPeers);

  // Deterministic per-lane transfer streams (cross-shard pairs included:
  // a lane may append about any pair, buffering makes it safe).
  struct Xfer {
    PeerId from, to;
    double bytes;
  };
  std::vector<std::vector<Xfer>> streams(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    util::Rng rng(900 + lane);
    for (std::size_t i = 0; i < kPerLane; ++i) {
      const auto from = static_cast<PeerId>(rng.next_below(kPeers));
      auto to = static_cast<PeerId>(rng.next_below(kPeers));
      if (to == from) to = (to + 1) % kPeers;
      streams[lane].push_back(
          Xfer{from, to, rng.next_double(0.1, 5.0) * 1024 * 1024});
    }
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> workers;
    workers.reserve(kLanes + 1);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      workers.emplace_back([&, lane] {
        LedgerSink& sink = sharded.sink(lane);
        for (const Xfer& x : streams[lane]) {
          sink.add_transfer(x.from, x.to, x.bytes);
        }
      });
    }
    // A reader racing the buffered appends: sink buffers are lane-local,
    // so queries must see exactly the pre-round state, data-race free.
    workers.emplace_back([&] {
      double sum = 0;
      for (PeerId p = 0; p < kPeers; ++p) {
        sum += sharded.total_uploaded_mb(p);
        sum += static_cast<double>(sharded.direct_view(p).size());
      }
      EXPECT_GE(sum, 0.0);
    });
    for (auto& w : workers) w.join();

    sharded.merge_sinks();  // the barrier step
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (const Xfer& x : streams[lane]) {
        reference.add_transfer(x.from, x.to, x.bytes);
      }
    }
    expect_identical(reference, sharded, kPeers);
  }
  EXPECT_EQ(sharded.stats().sink_merges, static_cast<std::uint64_t>(kRounds));
}

/// Full-stack equivalence: a scenario run's accounting and protocol stats
/// must not depend on the ledger backend, at any shard count.
TEST(LedgerShardStress, RunnerBackendsProduceIdenticalRuns) {
  trace::GeneratorParams params;
  params.n_peers = 20;
  params.n_swarms = 3;
  params.duration = kDay;
  params.founder_fraction = 0.7;
  params.arrival_window = 0.3;
  const trace::Trace tr = trace::generate_trace(params, 5);

  core::ScenarioConfig base;
  std::vector<const core::ScenarioRunner*> runners;
  std::vector<std::unique_ptr<core::ScenarioRunner>> owned;
  for (const auto backend :
       {LedgerBackend::kMap, LedgerBackend::kShardedLog}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      core::ScenarioConfig config = base;
      config.ledger = backend;
      config.shards = shards;
      owned.push_back(std::make_unique<core::ScenarioRunner>(tr, config, 42));
      owned.back()->run_until(tr.duration);
      runners.push_back(owned.back().get());
    }
  }
  const core::ScenarioRunner& ref = *runners.front();
  for (std::size_t r = 1; r < runners.size(); ++r) {
    const core::ScenarioRunner& other = *runners[r];
    EXPECT_EQ(ref.stats().downloads_completed,
              other.stats().downloads_completed);
    EXPECT_EQ(ref.stats().vote_exchanges, other.stats().vote_exchanges);
    EXPECT_EQ(ref.stats().votes_accepted, other.stats().votes_accepted);
    EXPECT_EQ(ref.stats().barter_exchanges, other.stats().barter_exchanges);
    expect_identical(ref.ledger(), other.ledger(), tr.peers.size());
    EXPECT_EQ(ref.collective_experience(5.0), other.collective_experience(5.0));
  }
}

}  // namespace
}  // namespace tribvote::bt
