// Rarest-first piece selection.
//
// Tracks swarm-wide availability (how many active members hold each piece)
// and picks, for a (downloader, uploader) link, the rarest piece the
// uploader has, the downloader lacks, and the downloader is not already
// fetching from someone else. Ties are broken uniformly at random, as real
// clients do, to avoid herd behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bt/bitfield.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {

inline constexpr std::size_t kNoPiece = static_cast<std::size_t>(-1);

class PiecePicker {
 public:
  explicit PiecePicker(std::size_t n_pieces);

  /// Availability bookkeeping: call when a member (re)announces possession.
  void add_have(std::size_t piece);
  void remove_have(std::size_t piece);
  /// Bulk add/remove a whole bitfield (member join/leave).
  void add_bitfield(const Bitfield& bf);
  void remove_bitfield(const Bitfield& bf);

  [[nodiscard]] std::uint32_t availability(std::size_t piece) const;

  /// Pick the rarest piece such that `uploader_has.test(p)`,
  /// `!downloader_has.test(p)` and `!in_flight.test(p)`. Returns kNoPiece
  /// when no piece qualifies. All three bitfields are sized n_pieces.
  [[nodiscard]] std::size_t pick(const Bitfield& uploader_has,
                                 const Bitfield& downloader_has,
                                 const Bitfield& in_flight,
                                 util::Rng& rng) const;

  /// Like pick(), but restricted to pieces in [lo, hi) — the streaming
  /// workload's playback window. Rarest-first within the window, same
  /// random tie-break. Returns kNoPiece when nothing in the window
  /// qualifies (callers fall back to the unrestricted pick for the tail).
  [[nodiscard]] std::size_t pick_window(const Bitfield& uploader_has,
                                        const Bitfield& downloader_has,
                                        const Bitfield& in_flight,
                                        std::size_t lo, std::size_t hi,
                                        util::Rng& rng) const;

  [[nodiscard]] std::size_t piece_count() const noexcept {
    return avail_.size();
  }

 private:
  std::vector<std::uint32_t> avail_;
};

}  // namespace tribvote::bt
