// Deterministic sharded round kernel (ROADMAP "Sharded populations").
//
// Gossip-style vote-sampling protocols are round-synchronous per *node*, not
// globally: within one protocol round every encounter touches exactly its two
// endpoint nodes (plus read-only shared state), so the population can be
// sharded across worker threads without changing protocol semantics — as
// long as each node's encounters are applied in the same relative order the
// serial runner would apply them.
//
// The kernel guarantees exactly that, for any shard count:
//
//   1. The caller performs the *pairing* phase serially (it consumes the
//      global scenario RNG and the PSS, whose draw order must not depend on
//      the shard count) and hands the kernel the round's encounter list,
//      tagged with ascending sequence numbers.
//   2. The kernel assigns each encounter to a *level*:
//      level(e) = 1 + max(level of the latest earlier encounter sharing an
//      endpoint with e). Within a level no node appears twice, so the
//      encounters of one level touch pairwise-disjoint node sets and commute.
//      Across levels, each node's encounters execute in sequence order — the
//      serial order. It also records each encounter's two *predecessors*:
//      the previous encounter (by list position) of its initiator and of its
//      responder. Both sit on lower levels.
//   3. Nodes map to shards by id % shards, and an encounter runs on its
//      responder's lane. Each lane's *plan* is, level by level, its
//      shard-local encounters in sequence order, then the cross-shard
//      encounters it receives in (initiator shard, sequence) order.
//   4. The lanes are dispatched once per round. A lane walks its plan; before
//      each encounter it waits until both predecessors are marked done, runs
//      the exchange, then marks the encounter done. There is no barrier
//      between levels: a lane only ever waits for its two endpoints' earlier
//      encounters. The lowest-level unfinished encounter can always run, so
//      the walk cannot deadlock.
//
// Result: for a fixed pairing, the per-node operation order — and therefore
// every byte of simulation output — is invariant under the shard count,
// including shards = 1, which executes the encounter list inline with no
// pool at all (today's serial runner, verbatim). Without a pool, shards > 1
// runs every lane's plan on the calling thread in level-major order, where
// no predecessor is ever outstanding. See DESIGN.md §8.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/ids.hpp"
#include "util/thread_pool.hpp"

namespace tribvote::sim {

/// One pairwise protocol encounter of a round, produced by the serial
/// pairing phase. `seq` numbers are ascending within a round.
struct Encounter {
  std::uint32_t seq = 0;
  PeerId initiator = kInvalidPeer;
  PeerId responder = kInvalidPeer;
};

/// Observability counters (tests and benches).
struct ShardKernelStats {
  std::uint64_t rounds = 0;  ///< run_round calls
  std::uint64_t levels = 0;  ///< conflict levels scheduled
  std::uint64_t local = 0;   ///< encounters with both endpoints on one shard
  std::uint64_t mailed = 0;  ///< cross-shard encounters (run by the
                             ///< responder's lane)
};

class ShardKernel {
 public:
  /// `population` bounds node ids; `shards` >= 1. `pool` carries the worker
  /// lanes when shards > 1; pass nullptr to execute every lane on the
  /// calling thread (identical results — useful under heavy replica
  /// parallelism and in tests). A pool with fewer threads than shards runs
  /// several lanes per worker, interleaved level by level. Lanes wait on
  /// each other, so the pool must not be busy with work that itself waits
  /// on this kernel (run_round must not be called from one of its workers).
  ShardKernel(std::size_t population, std::size_t shards,
              util::ThreadPool* pool);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t shard_of(PeerId id) const noexcept {
    return id % shards_;
  }

  /// Attach a telemetry plane (nullptr detaches). The kernel then records a
  /// "kernel.round" span and, when shards > 1, one "kernel.lane" span per
  /// lane per round (tid = lane + 1, arg = µs the lane spent waiting on
  /// predecessors). It maintains telemetry::current_lane() around each
  /// lane's work so lane-local counter writes inside exchange bodies land in
  /// the right registry block.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  /// Execute one encounter per list entry. `exchange(e, lane)` may mutate
  /// the two endpoint nodes and anything owned by `lane` (lanes are in
  /// [0, shards) and never run concurrently with themselves); it must treat
  /// all other state as read-only. Encounters must carry ascending seq. If
  /// an exchange throws, the round stops early and run_round rethrows the
  /// first exception once every lane has returned; the kernel stays usable.
  using ExchangeFn = std::function<void(const Encounter&, std::size_t lane)>;
  void run_round(const std::vector<Encounter>& encounters,
                 const ExchangeFn& exchange);

  /// Run a node-local task over the whole population, partitioned by shard
  /// (each lane walks its own ids in ascending order). `fn` must touch only
  /// the given node plus lane-owned state; results are shard-count
  /// invariant whenever `fn` is order-independent across nodes.
  using NodeFn = std::function<void(PeerId, std::size_t lane)>;
  void for_each_node(const NodeFn& fn);

  [[nodiscard]] const ShardKernelStats& stats() const noexcept {
    return stats_;
  }

 private:
  static constexpr std::uint32_t kNoStep = UINT32_MAX;

  /// One plan entry: the encounter at list position `pos` on `level`, to run
  /// once the encounters at positions `after_a` and `after_b` are done
  /// (kNoStep when there is none, or when it runs earlier on the same lane).
  struct Step {
    std::uint32_t pos = 0;
    std::uint32_t level = 0;
    std::uint32_t after_a = kNoStep;
    std::uint32_t after_b = kNoStep;
  };

  /// Written only by the worker that owns the lane during a round; read by
  /// the simulator thread after it.
  struct alignas(64) LaneSlot {
    std::size_t cursor = 0;     ///< next plan entry
    std::int64_t start_us = 0;  ///< trace clock, tracing only
    std::int64_t end_us = 0;
    std::int64_t wait_ns = 0;
  };

  std::size_t population_;
  std::size_t shards_;
  util::ThreadPool* pool_;
  telemetry::Telemetry* telemetry_ = nullptr;

  /// Build steps_/plan_ for a round of `encounters` (serial).
  void plan_round(const std::vector<Encounter>& encounters);
  /// Walk the plans of lanes first, first + stride, ... interleaved by level.
  void run_worker(std::size_t first, std::size_t stride,
                  const std::vector<Encounter>& encounters,
                  const ExchangeFn& exchange, telemetry::TraceBuffer* trace);
  /// Block until the encounter at `pos` is done; false if the round aborted.
  bool await(std::uint32_t pos, std::uint32_t epoch, LaneSlot& slot);
  /// Record the first exception, stop the round and wake every waiter.
  void abort_round(std::exception_ptr error, std::size_t count);

  // Scratch reused across rounds. The simulator thread (run_round is called
  // from one thread) builds it before dispatching the lanes, which only
  // read it; slots_ entries are written by their lane's worker.
  std::vector<std::uint32_t> last_;                 // node -> last pos + 1
  std::vector<Step> steps_;                         // position -> step
  std::vector<std::vector<std::uint32_t>> levels_;  // level -> positions
  std::vector<std::vector<std::uint32_t>> inbox_;   // [lane * shards + sender]
  std::vector<std::vector<Step>> plan_;             // lane -> steps in order
  std::vector<LaneSlot> slots_;
  std::size_t level_count_ = 0;

  // Completion flags by list position: done_[p] == epoch_ once the encounter
  // at p has run this round. Bumping the epoch resets them all at once.
  static constexpr std::uint32_t kAbortMark = UINT32_MAX;
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
  std::size_t done_capacity_ = 0;
  std::uint32_t epoch_ = 0;
  std::atomic<bool> aborted_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;

  ShardKernelStats stats_;
};

}  // namespace tribvote::sim
