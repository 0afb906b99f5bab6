// Telemetry facade (DESIGN.md §11): one object per runner owning the
// deterministic Registry, the wall-clock TraceBuffer, and the per-round
// counter samples. The runner holds a null pointer when telemetry is off,
// so the disabled path allocates nothing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "telemetry/config.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace tribvote::telemetry {

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config, std::size_t lanes = 1)
      : config_(std::move(config)), registry_(lanes) {}

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool tracing() const noexcept { return config_.tracing(); }

  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }
  [[nodiscard]] TraceBuffer& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }

  /// Snapshot the registry's columns as one per-round sample. Called by the
  /// runner at each round barrier after merge_lanes(); the harness writes
  /// the accumulated rows via write_round_csv after the run.
  void sample_round(std::uint64_t round, double t_hours);

  /// Write the per-round samples as CSV: t_hours, round, then every
  /// registry column (header captured at the first sample). Returns false
  /// if the file could not be written or no samples were taken.
  bool write_round_csv(const std::string& path) const;

  /// Write the span buffer in Chrome-trace JSON. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t round_samples() const noexcept {
    return rows_.size();
  }

 private:
  TelemetryConfig config_;
  Registry registry_;
  TraceBuffer trace_;

  std::vector<std::string> header_;  ///< column names, fixed at first sample
  struct Row {
    std::uint64_t round = 0;
    double t_hours = 0;
    std::vector<std::uint64_t> values;
  };
  std::vector<Row> rows_;
};

/// RAII span over a protocol phase or kernel round. Holds a nullable Telemetry
/// pointer: with tracing off (or telemetry off entirely) construction and
/// destruction are a branch each, recording nothing.
class Span {
 public:
  Span(Telemetry* telemetry, const char* name, std::uint32_t tid = 0)
      : telemetry_(telemetry != nullptr && telemetry->tracing() ? telemetry
                                                                : nullptr),
        name_(name),
        tid_(tid) {
    if (telemetry_ != nullptr) start_us_ = telemetry_->trace().now_us();
  }
  ~Span() {
    if (telemetry_ == nullptr) return;
    TraceBuffer& buf = telemetry_->trace();
    const std::int64_t dur = buf.now_us() - start_us_;
    if (has_arg_) {
      buf.record_arg(name_, start_us_, dur, arg_, tid_);
    } else {
      buf.record(name_, start_us_, dur, tid_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric payload (encounter count, level count…) shown as
  /// args.n in the trace viewer.
  void set_arg(std::uint64_t arg) {
    arg_ = arg;
    has_arg_ = true;
  }

 private:
  Telemetry* telemetry_;
  const char* name_;
  std::uint32_t tid_;
  std::int64_t start_us_ = 0;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
};

}  // namespace tribvote::telemetry
