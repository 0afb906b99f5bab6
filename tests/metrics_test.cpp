#include <gtest/gtest.h>

#include <cmath>

#include "bt/ledger.hpp"
#include "metrics/cev.hpp"
#include "metrics/ordering.hpp"
#include "metrics/timeseries.hpp"

namespace tribvote::metrics {
namespace {

TEST(Cev, EmptyAndSingleton) {
  const auto never = [](PeerId, PeerId) { return false; };
  EXPECT_EQ(collective_experience_value(0, never), 0.0);
  EXPECT_EQ(collective_experience_value(1, never), 0.0);
}

TEST(Cev, FullAndEmptyGraphs) {
  EXPECT_DOUBLE_EQ(
      collective_experience_value(5, [](PeerId, PeerId) { return true; }),
      1.0);
  EXPECT_DOUBLE_EQ(
      collective_experience_value(5, [](PeerId, PeerId) { return false; }),
      0.0);
}

TEST(Cev, DirectedCounting) {
  // Only the single ordered pair (0,1) experienced: 1 / (3*2) = 1/6.
  const auto e = [](PeerId i, PeerId j) { return i == 0 && j == 1; };
  EXPECT_NEAR(collective_experience_value(3, e), 1.0 / 6.0, 1e-12);
}

TEST(Cev, AgentOverloadMatchesPredicate) {
  bt::Ledger ledger(3);
  ledger.add_transfer(1, 0, 10.0 * 1024 * 1024);
  std::vector<std::unique_ptr<bartercast::BarterAgent>> agents;
  for (PeerId p = 0; p < 3; ++p) {
    agents.push_back(std::make_unique<bartercast::BarterAgent>(
        p, bartercast::BarterConfig{}));
    agents.back()->sync_direct(ledger, 1);
  }
  std::vector<const bartercast::BarterAgent*> ptrs;
  for (const auto& a : agents) ptrs.push_back(a.get());
  // Only e_0(1) holds (1 uploaded 10MB to 0 >= 5MB): CEV = 1/6.
  EXPECT_NEAR(collective_experience_value(
                  std::span<const bartercast::BarterAgent* const>(ptrs),
                  5.0),
              1.0 / 6.0, 1e-12);
}

TEST(Ordering, CorrectWhenExactMatch) {
  const std::vector<ModeratorId> expected{1, 2, 3};
  EXPECT_TRUE(ordering_correct({1, 2, 3}, expected));
}

TEST(Ordering, CorrectWithInterleavedOthers) {
  const std::vector<ModeratorId> expected{1, 2, 3};
  EXPECT_TRUE(ordering_correct({9, 1, 7, 2, 8, 3}, expected));
}

TEST(Ordering, IncorrectWhenSwapped) {
  const std::vector<ModeratorId> expected{1, 2, 3};
  EXPECT_FALSE(ordering_correct({2, 1, 3}, expected));
  EXPECT_FALSE(ordering_correct({1, 3, 2}, expected));
  EXPECT_FALSE(ordering_correct({3, 2, 1}, expected));
}

TEST(Ordering, IncorrectWhenIncomplete) {
  const std::vector<ModeratorId> expected{1, 2, 3};
  EXPECT_FALSE(ordering_correct({1, 2}, expected));
  EXPECT_FALSE(ordering_correct({}, expected));
}

TEST(Ordering, FractionOverRankings) {
  const std::vector<ModeratorId> expected{1, 2};
  const std::vector<vote::RankedList> rankings{
      {1, 2}, {2, 1}, {1, 9, 2}, {}};
  EXPECT_DOUBLE_EQ(correct_ordering_fraction(rankings, expected), 0.5);
  EXPECT_EQ(correct_ordering_fraction({}, expected), 0.0);
}

TEST(Pollution, TopEntryDetection) {
  EXPECT_TRUE(is_polluted({9, 1, 2}, 9));
  EXPECT_FALSE(is_polluted({1, 9}, 9));
  EXPECT_FALSE(is_polluted({}, 9));
}

TEST(Pollution, Fraction) {
  const std::vector<vote::RankedList> rankings{{9, 1}, {1, 9}, {9}, {}};
  EXPECT_DOUBLE_EQ(pollution_fraction(rankings, 9), 0.5);
}

TEST(TimeSeries, AddAndSize) {
  TimeSeries ts;
  ts.add(0, 1.0);
  ts.add(10, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.times[1], 10);
}

TEST(Aggregate, MeanAndStderrAcrossReplicas) {
  TimeSeries a, b, c;
  for (Time t : {0, 10, 20}) {
    a.add(t, 1.0);
    b.add(t, 2.0);
    c.add(t, 3.0);
  }
  const AggregateSeries agg = aggregate({a, b, c});
  ASSERT_EQ(agg.times.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(agg.mean[i], 2.0);
    EXPECT_NEAR(agg.stderr_mean[i], 1.0 / std::sqrt(3.0), 1e-12);
    EXPECT_DOUBLE_EQ(agg.min[i], 1.0);
    EXPECT_DOUBLE_EQ(agg.max[i], 3.0);
  }
}

TEST(Aggregate, ToleratesShorterReplicas) {
  TimeSeries full, partial;
  full.add(0, 1.0);
  full.add(10, 1.0);
  partial.add(0, 3.0);
  const AggregateSeries agg = aggregate({full, partial});
  ASSERT_EQ(agg.times.size(), 2u);
  EXPECT_DOUBLE_EQ(agg.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(agg.mean[1], 1.0);  // only the full replica reached t=10
}

TEST(Aggregate, EmptyInput) {
  EXPECT_TRUE(aggregate({}).times.empty());
  EXPECT_TRUE(aggregate({TimeSeries{}}).times.empty());
}

}  // namespace
}  // namespace tribvote::metrics
