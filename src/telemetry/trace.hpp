// Span buffer for the Chrome-trace exporter (DESIGN.md §11).
//
// A TraceBuffer collects completed spans — (name, start, duration) against
// a steady-clock epoch fixed at construction. Spans time *wall clock*, not
// simulated time: they exist to show where a run spends hardware time
// (which protocol phase, which kernel lane), and are the only part of the
// telemetry plane that is not deterministic. Counter/histogram totals never
// come from here.
//
// Threading: record() is not synchronized. The runner only records spans
// from the simulator thread, so one buffer per runner needs no lock. The
// ShardKernel's worker lanes only read the clock (now_us() is const): each
// stamps its start, end and wait into a lane-owned slot, and the simulator
// thread records those as "kernel.lane" spans (tid = lane + 1) after the
// round.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace tribvote::telemetry {

/// One completed span. `name` must point at static storage (instrumentation
/// sites pass string literals); `ts_us`/`dur_us` are microseconds against
/// the buffer's epoch.
struct SpanEvent {
  const char* name = "";
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
  std::uint64_t arg = 0;  ///< generic numeric payload (encounters, levels…)
  bool has_arg = false;
};

class TraceBuffer {
 public:
  TraceBuffer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds elapsed since the buffer's epoch.
  [[nodiscard]] std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void record(const char* name, std::int64_t ts_us, std::int64_t dur_us,
              std::uint32_t tid = 0) {
    events_.push_back(SpanEvent{name, ts_us, dur_us, tid, 0, false});
  }
  void record_arg(const char* name, std::int64_t ts_us, std::int64_t dur_us,
                  std::uint64_t arg, std::uint32_t tid = 0) {
    events_.push_back(SpanEvent{name, ts_us, dur_us, tid, arg, true});
  }

  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanEvent> events_;
};

}  // namespace tribvote::telemetry
