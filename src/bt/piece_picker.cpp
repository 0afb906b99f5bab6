#include "bt/piece_picker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace tribvote::bt {

namespace {
/// Calls f(base + i) for every set bit i of `word`, in ascending order.
template <typename F>
void for_each_bit(std::uint64_t word, std::size_t base, F&& f) {
  while (word != 0) {
    f(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}
}  // namespace

PiecePicker::PiecePicker(std::size_t n_pieces) : avail_(n_pieces, 0) {}

void PiecePicker::add_have(std::size_t piece) {
  assert(piece < avail_.size());
  ++avail_[piece];
}

void PiecePicker::remove_have(std::size_t piece) {
  assert(piece < avail_.size());
  assert(avail_[piece] > 0);
  --avail_[piece];
}

void PiecePicker::add_bitfield(const Bitfield& bf) {
  assert(bf.size() == avail_.size());
  const auto words = bf.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for_each_bit(words[w], w * 64, [&](std::size_t p) { ++avail_[p]; });
  }
}

void PiecePicker::remove_bitfield(const Bitfield& bf) {
  assert(bf.size() == avail_.size());
  const auto words = bf.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for_each_bit(words[w], w * 64, [&](std::size_t p) {
      assert(avail_[p] > 0);
      --avail_[p];
    });
  }
}

std::uint32_t PiecePicker::availability(std::size_t piece) const {
  assert(piece < avail_.size());
  return avail_[piece];
}

std::size_t PiecePicker::pick(const Bitfield& uploader_has,
                              const Bitfield& downloader_has,
                              const Bitfield& in_flight,
                              util::Rng& rng) const {
  return pick_window(uploader_has, downloader_has, in_flight, 0,
                     avail_.size(), rng);
}

std::size_t PiecePicker::pick_window(const Bitfield& uploader_has,
                                     const Bitfield& downloader_has,
                                     const Bitfield& in_flight,
                                     std::size_t lo, std::size_t hi,
                                     util::Rng& rng) const {
  assert(uploader_has.size() == avail_.size());
  assert(downloader_has.size() == avail_.size());
  assert(in_flight.size() == avail_.size());
  hi = std::min(hi, avail_.size());
  if (lo >= hi) return kNoPiece;
  const auto up = uploader_has.words();
  const auto down = downloader_has.words();
  const auto busy = in_flight.words();
  // One pass over the eligible pieces in ascending order, with
  // reservoir-style random tie-breaking among the current
  // minimum-availability candidates. The eligible set is built a word at a
  // time; the visiting order, and so every rng draw, is the per-piece
  // scan's.
  std::uint32_t best_avail = std::numeric_limits<std::uint32_t>::max();
  std::size_t best = kNoPiece;
  std::uint64_t ties = 0;
  const std::size_t first = lo / 64;
  const std::size_t last = (hi - 1) / 64;
  for (std::size_t w = first; w <= last; ++w) {
    std::uint64_t eligible = up[w] & ~down[w] & ~busy[w];
    if (w == first) eligible &= ~0ULL << (lo % 64);
    if (w == last && hi % 64 != 0) eligible &= (1ULL << (hi % 64)) - 1;
    for_each_bit(eligible, w * 64, [&](std::size_t p) {
      if (avail_[p] < best_avail) {
        best_avail = avail_[p];
        best = p;
        ties = 1;
      } else if (avail_[p] == best_avail) {
        ++ties;
        if (rng.next_below(ties) == 0) best = p;
      }
    });
  }
  return best;
}

}  // namespace tribvote::bt
