// Deterministic metric registry (DESIGN.md §11).
//
// Named counters, gauges and fixed-bucket histograms with lane-local value
// blocks. Hot-path writes land in the block of the worker lane executing
// the current encounter (telemetry::current_lane(), a thread-local the
// ShardKernel maintains around each lane's work); blocks are folded into
// the totals serially at round barriers, in lane order. Every folded
// quantity is an unsigned sum, so totals are bit-identical at any shard
// count — the same discipline the fault plane's lane buffers follow.
//
// Concurrency contract:
//   * registration (counter/gauge/histogram) is serial, before rounds run;
//   * add/observe are lock-free — each lane owns a contiguous block and
//     the kernel never runs one lane concurrently with itself;
//   * set_total/set_gauge/merge_lanes and every read are serial
//     (simulator-thread) operations.
//
// Disabled telemetry never constructs a Registry at all: the Counter /
// Histogram handles below carry a null registry pointer and their add /
// observe bodies inline to a single predictable branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tribvote::telemetry {

/// Worker lane executing on this thread. 0 on the simulator thread and on
/// any thread the kernel has not claimed; the ShardKernel sets it around
/// each lane's work.
[[nodiscard]] std::size_t current_lane() noexcept;
void set_current_lane(std::size_t lane) noexcept;

struct CounterId {
  std::uint32_t v = 0;
};
struct GaugeId {
  std::uint32_t v = 0;
};
struct HistogramId {
  std::uint32_t v = 0;
};

class Registry {
 public:
  /// `lanes` matches the shard kernel's lane count (>= 1).
  explicit Registry(std::size_t lanes = 1);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  // ---- registration (serial; idempotent per name) --------------------------

  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  /// `upper_edges` must be strictly increasing. Bucket i counts
  /// observations v with v <= upper_edges[i] (first matching edge); an
  /// implicit final bucket counts everything above the last edge (and any
  /// NaN). Re-registering a name returns the existing id; the edges must
  /// match.
  HistogramId histogram(const std::string& name,
                        std::vector<double> upper_edges);

  // ---- hot path (lane-local via current_lane(), lock-free) -----------------

  void add(CounterId id, std::uint64_t delta = 1);
  void observe(HistogramId id, double value);

  // ---- serial-only writes --------------------------------------------------

  /// Overwrite a counter's merged total — the mirror path for counters
  /// whose source of truth lives elsewhere (RunStats, FaultStats,
  /// ShardKernelStats). Clears any unmerged lane deltas for the id.
  void set_total(CounterId id, std::uint64_t value);
  void set_gauge(GaugeId id, double value);

  /// Fold every lane block into the totals, in lane order, and zero the
  /// blocks. Reads already fold unmerged lane deltas on the fly, so this
  /// is compaction, not a correctness requirement — the runner calls it at
  /// the per-round barrier.
  void merge_lanes();

  // ---- reads (serial; include unmerged lane deltas) ------------------------

  [[nodiscard]] std::uint64_t total(CounterId id) const;
  [[nodiscard]] double gauge_value(GaugeId id) const;
  /// Bucket counts for a histogram: upper_edges.size() + 1 entries, the
  /// last being the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> buckets(HistogramId id) const;
  [[nodiscard]] const std::vector<double>& edges(HistogramId id) const;

  /// Merged total of a counter by name (0 if not registered) — the lookup
  /// examples and tests use so they need not thread ids around.
  [[nodiscard]] std::uint64_t total_by_name(const std::string& name) const;

  /// Every integer column in a stable order: counters in registration
  /// order, then each histogram expanded to `<name>.le<edge>` buckets plus
  /// `<name>.inf`. This is the per-round CSV schema.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> columns()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;

 private:
  std::size_t lanes_;

  std::vector<std::string> counter_names_;
  std::vector<std::uint64_t> counter_totals_;
  // lane -> counter block (indexed by CounterId::v).
  std::vector<std::vector<std::uint64_t>> lane_counters_;

  std::vector<std::string> gauge_names_;
  std::vector<double> gauge_values_;

  struct HistogramMeta {
    std::string name;
    std::vector<double> edges;
    std::size_t offset = 0;  ///< first bucket slot in the flat arrays
  };
  std::vector<HistogramMeta> histograms_;
  std::vector<std::uint64_t> bucket_totals_;  ///< flat, all histograms
  std::vector<std::vector<std::uint64_t>> lane_buckets_;
};

/// Nullable counter handle: instrumentation sites hold one by value and
/// call add() unconditionally; with telemetry disabled the registry
/// pointer is null and the call inlines to a branch-and-return.
class Counter {
 public:
  Counter() = default;
  Counter(Registry* registry, CounterId id) : registry_(registry), id_(id) {}
  void add(std::uint64_t delta = 1) const {
    if (registry_ != nullptr) registry_->add(id_, delta);
  }
  [[nodiscard]] bool enabled() const noexcept { return registry_ != nullptr; }

 private:
  Registry* registry_ = nullptr;
  CounterId id_{};
};

/// Nullable histogram handle, same contract as Counter.
class Histogram {
 public:
  Histogram() = default;
  Histogram(Registry* registry, HistogramId id)
      : registry_(registry), id_(id) {}
  void observe(double value) const {
    if (registry_ != nullptr) registry_->observe(id_, value);
  }
  [[nodiscard]] bool enabled() const noexcept { return registry_ != nullptr; }

 private:
  Registry* registry_ = nullptr;
  HistogramId id_{};
};

}  // namespace tribvote::telemetry
