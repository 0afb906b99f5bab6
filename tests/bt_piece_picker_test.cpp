#include "bt/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

namespace tribvote::bt {
namespace {

class PiecePickerTest : public ::testing::Test {
 protected:
  util::Rng rng_{1};
};

TEST_F(PiecePickerTest, AvailabilityBookkeeping) {
  PiecePicker picker(4);
  picker.add_have(0);
  picker.add_have(0);
  picker.add_have(2);
  EXPECT_EQ(picker.availability(0), 2u);
  EXPECT_EQ(picker.availability(1), 0u);
  EXPECT_EQ(picker.availability(2), 1u);
  picker.remove_have(0);
  EXPECT_EQ(picker.availability(0), 1u);
}

TEST_F(PiecePickerTest, BitfieldBulkOps) {
  PiecePicker picker(6);
  Bitfield bf(6);
  bf.set(1);
  bf.set(4);
  picker.add_bitfield(bf);
  picker.add_bitfield(bf);
  EXPECT_EQ(picker.availability(1), 2u);
  EXPECT_EQ(picker.availability(4), 2u);
  EXPECT_EQ(picker.availability(0), 0u);
  picker.remove_bitfield(bf);
  EXPECT_EQ(picker.availability(1), 1u);
}

TEST_F(PiecePickerTest, PicksRarestEligible) {
  PiecePicker picker(3);
  // Piece 0: avail 3, piece 1: avail 1, piece 2: avail 2.
  for (int i = 0; i < 3; ++i) picker.add_have(0);
  picker.add_have(1);
  picker.add_have(2);
  picker.add_have(2);

  Bitfield uploader(3);
  uploader.set_all();
  Bitfield downloader(3);  // lacks everything
  Bitfield in_flight(3);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 1u);
}

TEST_F(PiecePickerTest, SkipsPiecesDownloaderHas) {
  PiecePicker picker(2);
  picker.add_have(0);  // availability: piece0=1, piece1=0
  Bitfield uploader(2);
  uploader.set_all();
  Bitfield downloader(2);
  downloader.set(1);
  Bitfield in_flight(2);
  // Piece 1 has availability 0 (rarer) but downloader already has it.
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 0u);
}

TEST_F(PiecePickerTest, SkipsInFlightPieces) {
  PiecePicker picker(2);
  Bitfield uploader(2);
  uploader.set_all();
  Bitfield downloader(2);
  Bitfield in_flight(2);
  in_flight.set(0);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 1u);
}

TEST_F(PiecePickerTest, SkipsPiecesUploaderLacks) {
  PiecePicker picker(3);
  Bitfield uploader(3);
  uploader.set(2);
  Bitfield downloader(3);
  Bitfield in_flight(3);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), 2u);
}

TEST_F(PiecePickerTest, ReturnsNoPieceWhenNothingEligible) {
  PiecePicker picker(2);
  Bitfield uploader(2);
  Bitfield downloader(2);
  Bitfield in_flight(2);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), kNoPiece);

  uploader.set(0);
  downloader.set(0);
  EXPECT_EQ(picker.pick(uploader, downloader, in_flight, rng_), kNoPiece);
}

TEST_F(PiecePickerTest, TieBreakIsRoughlyUniform) {
  PiecePicker picker(4);  // all availability 0: four-way tie
  Bitfield uploader(4);
  uploader.set_all();
  Bitfield downloader(4);
  Bitfield in_flight(4);
  std::map<std::size_t, int> histogram;
  for (int i = 0; i < 4000; ++i) {
    ++histogram[picker.pick(uploader, downloader, in_flight, rng_)];
  }
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [piece, count] : histogram) {
    EXPECT_NEAR(count, 1000, 150) << "piece " << piece;
  }
}

// Property: the picked piece always satisfies the eligibility invariant and
// rarest-first optimality, across random configurations.
class PickerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PickerPropertyTest, PickedPieceIsAlwaysEligibleAndRarest) {
  util::Rng rng(GetParam());
  const std::size_t n = 1 + rng.next_below(64);
  PiecePicker picker(n);
  Bitfield uploader(n), downloader(n);
  Bitfield in_flight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto avail = rng.next_below(5);
    for (std::uint64_t a = 0; a < avail; ++a) picker.add_have(i);
    if (rng.next_bool(0.6)) uploader.set(i);
    if (rng.next_bool(0.3)) downloader.set(i);
    if (rng.next_bool(0.2)) in_flight.set(i);
  }
  const std::size_t pick = picker.pick(uploader, downloader, in_flight, rng);
  if (pick == kNoPiece) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(uploader.test(i) && !downloader.test(i) &&
                   !in_flight.test(i))
          << "eligible piece " << i << " was not picked";
    }
  } else {
    EXPECT_TRUE(uploader.test(pick));
    EXPECT_FALSE(downloader.test(pick));
    EXPECT_FALSE(in_flight.test(pick));
    for (std::size_t i = 0; i < n; ++i) {
      if (uploader.test(i) && !downloader.test(i) && !in_flight.test(i)) {
        EXPECT_LE(picker.availability(pick), picker.availability(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, PickerPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 40));

// ---- word-parallel picker == per-piece reference ---------------------------

/// The per-piece scan the word-parallel picker replaced, kept as the
/// reference: visit [lo, min(hi, n)) in ascending order and keep the least
/// available eligible piece, breaking ties by reservoir sampling.
std::size_t reference_pick(const PiecePicker& picker, const Bitfield& up,
                           const Bitfield& down, const Bitfield& in_flight,
                           std::size_t lo, std::size_t hi, util::Rng& rng) {
  hi = std::min(hi, picker.piece_count());
  std::uint32_t best_avail = std::numeric_limits<std::uint32_t>::max();
  std::size_t best = kNoPiece;
  std::uint64_t ties = 0;
  for (std::size_t p = lo; p < hi; ++p) {
    if (!up.test(p) || down.test(p) || in_flight.test(p)) continue;
    const std::uint32_t avail = picker.availability(p);
    if (avail < best_avail) {
      best_avail = avail;
      best = p;
      ties = 1;
    } else if (avail == best_avail) {
      ++ties;
      if (rng.next_below(ties) == 0) best = p;
    }
  }
  return best;
}

struct PickerView {
  PiecePicker picker;
  Bitfield up, down, in_flight;
};

/// A random availability vector and uploader/downloader/in-flight masks.
/// Densities vary per view, so some views have no eligible piece and
/// others nearly all; availability in a small range makes many ties.
PickerView random_view(std::size_t n, util::Rng& rng) {
  PickerView v{PiecePicker(n), Bitfield(n), Bitfield(n), Bitfield(n)};
  const double p_up = rng.next_double();
  const double p_down = rng.next_double();
  const double p_busy = 0.5 * rng.next_double();
  const std::uint64_t avail_range = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t avail = rng.next_below(avail_range);
    for (std::uint64_t a = 0; a < avail; ++a) v.picker.add_have(i);
    if (rng.next_bool(p_up)) v.up.set(i);
    if (rng.next_bool(p_down)) v.down.set(i);
    if (rng.next_bool(p_busy)) v.in_flight.set(i);
  }
  return v;
}

constexpr std::size_t kViewSizes[] = {1, 63, 64, 65, 700};
constexpr std::size_t kWindowStarts[] = {0,   1,   62,  63,  64,
                                         65,  127, 128, 129, 699};
constexpr std::size_t kWindowWidths[] = {0, 1, 2, 63, 64, 65, 130, 200};

TEST(PickerReference, PickMatchesPerPieceScanAndRngState) {
  util::Rng gen(17);
  for (const std::size_t n : kViewSizes) {
    for (int trial = 0; trial < 300; ++trial) {
      const PickerView v = random_view(n, gen);
      const std::uint64_t seed = gen();
      util::Rng fast(seed), slow(seed);
      ASSERT_EQ(v.picker.pick(v.up, v.down, v.in_flight, fast),
                reference_pick(v.picker, v.up, v.down, v.in_flight, 0, n,
                               slow))
          << "n=" << n << " trial " << trial;
      ASSERT_EQ(fast(), slow()) << "rng diverged: n=" << n << " trial "
                                << trial;
    }
  }
}

TEST(PickerReference, WindowMatchesPerPieceScanAcrossWordBoundaries) {
  util::Rng gen(23);
  for (const std::size_t n : kViewSizes) {
    // Windows starting and ending on, just before and just after word
    // boundaries, spanning zero to three words, plus random ones; hi may
    // run past n (clamped) and lo may equal n (empty).
    std::vector<std::pair<std::size_t, std::size_t>> windows;
    for (const std::size_t lo : kWindowStarts) {
      if (lo > n) continue;
      for (const std::size_t width : kWindowWidths) {
        windows.emplace_back(lo, lo + width);
      }
    }
    for (int r = 0; r < 100; ++r) {
      const std::size_t lo = gen.next_below(n + 1);
      windows.emplace_back(lo, lo + gen.next_below(140));
    }
    for (const auto& [lo, hi] : windows) {
      const PickerView v = random_view(n, gen);
      const std::uint64_t seed = gen();
      util::Rng fast(seed), slow(seed);
      ASSERT_EQ(v.picker.pick_window(v.up, v.down, v.in_flight, lo, hi, fast),
                reference_pick(v.picker, v.up, v.down, v.in_flight, lo, hi,
                               slow))
          << "n=" << n << " window [" << lo << ", " << hi << ")";
      ASSERT_EQ(fast(), slow())
          << "rng diverged: n=" << n << " window [" << lo << ", " << hi
          << ")";
    }
  }
}

}  // namespace
}  // namespace tribvote::bt
