#include "bt/bitfield.hpp"

#include <cassert>

namespace tribvote::bt {

Bitfield::Bitfield(std::size_t n_bits)
    : n_bits_(n_bits), words_((n_bits + 63) / 64, 0) {}

bool Bitfield::test(std::size_t i) const noexcept {
  assert(i < n_bits_);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void Bitfield::set(std::size_t i) noexcept {
  assert(i < n_bits_);
  std::uint64_t& w = words_[i / 64];
  const std::uint64_t bit = 1ULL << (i % 64);
  if ((w & bit) == 0) {
    w |= bit;
    ++count_;
  }
}

void Bitfield::reset(std::size_t i) noexcept {
  assert(i < n_bits_);
  std::uint64_t& w = words_[i / 64];
  const std::uint64_t bit = 1ULL << (i % 64);
  if ((w & bit) != 0) {
    w &= ~bit;
    --count_;
  }
}

void Bitfield::set_all() noexcept {
  if (n_bits_ == 0) return;
  for (auto& w : words_) w = ~0ULL;
  // Clear the padding bits in the final word.
  const std::size_t rem = n_bits_ % 64;
  if (rem != 0) words_.back() &= (1ULL << rem) - 1;
  count_ = n_bits_;
}

bool Bitfield::has_piece_not_in(const Bitfield& other) const noexcept {
  assert(n_bits_ == other.n_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] & ~other.words_[w]) return true;
  }
  return false;
}

}  // namespace tribvote::bt
