// On-demand streaming workload knobs (DESIGN.md "Adversary plane").
//
// Split from swarm.hpp so ScenarioConfig can embed the config without
// pulling the whole swarm engine into every translation unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tribvote::bt {

/// When enabled, leechers pick pieces windowed ahead of a per-peer
/// playback position (rarest-first within the window, falling back to
/// global rarest for the tail) and a playback clock consumes pieces at
/// playback_kbps. A piece not present when the player reaches it is a
/// deadline miss: playback skips it (stall-free skip model) and the piece
/// stays fetchable. Disabled (the default) changes nothing — picks, RNG
/// draws and ledger traffic are byte-identical to the download workload.
struct StreamingConfig {
  bool enabled = false;
  /// Pieces ahead of the playback position eligible for windowed picks.
  std::size_t window = 8;
  /// Contiguous pieces buffered from the start before playback begins.
  std::size_t startup_pieces = 4;
  /// Playback consumption rate (kilobits per second).
  double playback_kbps = 512.0;
};

/// Aggregate playback outcomes; survives member departures (counted at
/// the swarm level the moment they happen, not summed over members).
struct StreamingTotals {
  std::uint64_t started = 0;          ///< playbacks begun (startup buffered)
  std::uint64_t finished = 0;         ///< playbacks that reached the end
  std::uint64_t pieces_on_time = 0;   ///< pieces present at their deadline
  std::uint64_t deadline_misses = 0;  ///< pieces skipped by the player

  StreamingTotals& operator+=(const StreamingTotals& o) noexcept {
    started += o.started;
    finished += o.finished;
    pieces_on_time += o.pieces_on_time;
    deadline_misses += o.deadline_misses;
    return *this;
  }
};

/// Parse a streaming spec into `out`. Grammar:
///   spec := "off" | "on" | key '=' value (',' key '=' value)*
///   key  := window | startup | kbps
/// A key=value list implies "on" and starts from the defaults; window and
/// startup are integers >= 1, kbps a real > 0. Returns false, leaving
/// `out` untouched, and fills *error (if given) on an unknown key or an
/// invalid value.
[[nodiscard]] bool parse_streaming_spec(const std::string& spec,
                                        StreamingConfig& out,
                                        std::string* error = nullptr);

/// One-line human-readable form for banners ("off" when disabled).
[[nodiscard]] std::string describe(const StreamingConfig& config);

}  // namespace tribvote::bt
