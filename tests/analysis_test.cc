#include <gtest/gtest.h>

#include <vector>

#include "core/analysis.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

TEST(Analysis, AlgorithmicLowerBoundSumsSourcesAndSinks) {
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  // Sources {0, 1}, sinks {4}.
  EXPECT_EQ(AlgorithmicLowerBound(g), 3 + 5 + 13);
}

TEST(Analysis, AlgorithmicLowerBoundSkipsIsolatedNodes) {
  // An isolated node starts blue, which meets its stop condition, so it
  // needs neither a load nor a store.
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  const Graph with_isolated = testing::WithIsolatedNode(g, 17);
  EXPECT_EQ(AlgorithmicLowerBound(with_isolated), AlgorithmicLowerBound(g));
}

TEST(Analysis, MinValidBudgetIsWorstComputeFootprint) {
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  // Node 2 needs 7+3+5=15; node 3 needs 11+5=16; node 4 needs 13+7+11=31.
  EXPECT_EQ(MinValidBudget(g), 31);
}

TEST(Analysis, ScheduleExistsMatchesProposition23) {
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  EXPECT_FALSE(ScheduleExists(g, 30));
  EXPECT_TRUE(ScheduleExists(g, 31));
  EXPECT_TRUE(ScheduleExists(g, 1000));
}

TEST(Analysis, ChainMinBudget) {
  const Graph g = MakeChain(10, 4);
  EXPECT_EQ(MinValidBudget(g), 8);  // node + single parent
  EXPECT_EQ(AlgorithmicLowerBound(g), 8);  // one source + one sink
}

// A synthetic monotone cost function: cost(b) = max(100 - b, 40).
TEST(Analysis, FindMinimumFastMemoryBinarySearch) {
  const CostFn cost = [](Weight b) { return std::max<Weight>(100 - b, 40); };
  const auto found = FindMinimumFastMemory(
      cost, 40, {.lo = 1, .hi = 200, .step = 1, .monotone = true});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 60);
}

TEST(Analysis, FindMinimumFastMemoryLinearScan) {
  const CostFn cost = [](Weight b) { return std::max<Weight>(100 - b, 40); };
  const auto found = FindMinimumFastMemory(
      cost, 40, {.lo = 1, .hi = 200, .step = 1, .monotone = false});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 60);
}

TEST(Analysis, FindMinimumFastMemoryHonorsStep) {
  const CostFn cost = [](Weight b) { return std::max<Weight>(100 - b, 40); };
  // Grid 16, 32, ..., the first multiple of 16 achieving is 64.
  for (bool monotone : {false, true}) {
    const auto found = FindMinimumFastMemory(
        cost, 40, {.lo = 16, .hi = 320, .step = 16, .monotone = monotone});
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 64);
  }
}

TEST(Analysis, FindMinimumFastMemoryUnreachable) {
  const CostFn cost = [](Weight) { return Weight{50}; };
  for (bool monotone : {false, true}) {
    EXPECT_FALSE(FindMinimumFastMemory(
                     cost, 40,
                     {.lo = 1, .hi = 100, .step = 1, .monotone = monotone})
                     .has_value());
  }
}

TEST(Analysis, FindMinimumFastMemoryEmptyRange) {
  const CostFn cost = [](Weight) { return Weight{0}; };
  EXPECT_FALSE(FindMinimumFastMemory(
                   cost, 0, {.lo = 10, .hi = 5, .step = 1, .monotone = true})
                   .has_value());
}

TEST(Analysis, FindMinimumFastMemoryFirstBudgetAchieves) {
  const CostFn cost = [](Weight) { return Weight{7}; };
  for (bool monotone : {false, true}) {
    const auto found = FindMinimumFastMemory(
        cost, 7, {.lo = 3, .hi = 30, .step = 3, .monotone = monotone});
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 3);
  }
}

}  // namespace
}  // namespace wrbpg
