// Piece-possession bitfield, the per-member piece map every BitTorrent
// client maintains. Packed 64-bit words; sized once at torrent granularity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tribvote::bt {

class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t n_bits);

  [[nodiscard]] std::size_t size() const noexcept { return n_bits_; }
  [[nodiscard]] bool test(std::size_t i) const noexcept;
  void set(std::size_t i) noexcept;
  void reset(std::size_t i) noexcept;
  /// Set every bit (seed state).
  void set_all() noexcept;

  /// O(1): the population count is kept up to date by set/reset/set_all.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool all() const noexcept { return count_ == n_bits_; }
  [[nodiscard]] bool none() const noexcept { return count_ == 0; }

  /// True when this bitfield holds at least one piece `other` lacks — the
  /// "is interested" test between an uploader (this) and a downloader
  /// (other). Word-parallel. Sizes must match.
  [[nodiscard]] bool has_piece_not_in(const Bitfield& other) const noexcept;

  /// The packed words, bit i at `words()[i / 64] >> (i % 64)`. Bits past
  /// size() in the last word are always zero, so word-wise masks built
  /// from several bitfields of one size never select a padding bit.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

 private:
  std::size_t n_bits_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tribvote::bt
