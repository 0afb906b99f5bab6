#include "bt/bitfield.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace tribvote::bt {
namespace {

TEST(Bitfield, StartsEmpty) {
  Bitfield bf(100);
  EXPECT_EQ(bf.size(), 100u);
  EXPECT_EQ(bf.count(), 0u);
  EXPECT_TRUE(bf.none());
  EXPECT_FALSE(bf.all());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bf.test(i));
}

TEST(Bitfield, SetAndReset) {
  Bitfield bf(70);
  bf.set(0);
  bf.set(63);
  bf.set(64);
  bf.set(69);
  EXPECT_EQ(bf.count(), 4u);
  EXPECT_TRUE(bf.test(63));
  EXPECT_TRUE(bf.test(64));
  bf.reset(63);
  EXPECT_FALSE(bf.test(63));
  EXPECT_EQ(bf.count(), 3u);
}

TEST(Bitfield, SetAllRespectsPadding) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 700u}) {
    Bitfield bf(n);
    bf.set_all();
    EXPECT_EQ(bf.count(), n) << "n=" << n;
    EXPECT_TRUE(bf.all());
  }
}

TEST(Bitfield, ZeroSizeIsAll) {
  Bitfield bf(0);
  EXPECT_TRUE(bf.all());  // vacuous
  bf.set_all();
  EXPECT_EQ(bf.count(), 0u);
}

TEST(Bitfield, HasPieceNotIn) {
  Bitfield a(130), b(130);
  EXPECT_FALSE(a.has_piece_not_in(b));  // both empty
  a.set(5);
  EXPECT_TRUE(a.has_piece_not_in(b));
  EXPECT_FALSE(b.has_piece_not_in(a));
  b.set(5);
  EXPECT_FALSE(a.has_piece_not_in(b));
  a.set(128);  // second word
  EXPECT_TRUE(a.has_piece_not_in(b));
  b.set_all();
  EXPECT_FALSE(a.has_piece_not_in(b));
  EXPECT_TRUE(b.has_piece_not_in(a));
}

TEST(Bitfield, SeedNeverInterestedInSeed) {
  Bitfield seed1(50), seed2(50);
  seed1.set_all();
  seed2.set_all();
  EXPECT_FALSE(seed1.has_piece_not_in(seed2));
}

TEST(Bitfield, SetIsIdempotentForCount) {
  Bitfield bf(10);
  bf.set(3);
  bf.set(3);
  EXPECT_EQ(bf.count(), 1u);
}

// The cached count (and none/all, which read it) must equal a fresh
// per-bit count after any mix of operations, including repeated sets and
// resets of one bit; padding bits past size() must stay clear, since
// word-wise masks rely on it.
TEST(Bitfield, CachedCountMatchesFreshPopcount) {
  util::Rng rng(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 700u}) {
    Bitfield bf(n);
    for (int step = 0; step < 4000; ++step) {
      const std::size_t i = rng.next_below(n);
      const std::uint64_t op = rng.next_below(100);
      if (op < 40) {
        bf.set(i);
      } else if (op < 80) {
        bf.reset(i);
      } else if (op < 90) {
        bf.set(i);
        bf.set(i);
      } else if (op < 99) {
        bf.reset(i);
        bf.reset(i);
      } else {
        bf.set_all();
      }
      std::size_t fresh = 0;
      for (std::size_t b = 0; b < n; ++b) {
        if (bf.test(b)) ++fresh;
      }
      ASSERT_EQ(bf.count(), fresh) << "n=" << n << " step " << step;
      ASSERT_EQ(bf.none(), fresh == 0);
      ASSERT_EQ(bf.all(), fresh == n);
      if (n % 64 != 0) {
        ASSERT_EQ(bf.words().back() >> (n % 64), 0u) << "padding bit set";
      }
    }
  }
}

}  // namespace
}  // namespace tribvote::bt
