#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/analysis.h"
#include "obs/span.h"
#include "schedulers/brute_force.h"
#include "schedulers/greedy_topo.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

TEST(BruteForce, ChainCostIsSourcePlusSinkWhenMemoryAmple) {
  const Graph g = MakeChain(5, 2);
  BruteForceScheduler sched(g);
  const auto result = sched.Run(100);
  ASSERT_TRUE(result.feasible);
  // Load the source once, store the sink once: 2 + 2.
  EXPECT_EQ(result.cost, AlgorithmicLowerBound(g));
  const SimResult sim = testing::ExpectValid(g, 100, result.schedule);
  EXPECT_EQ(sim.cost, result.cost);
}

TEST(BruteForce, ChainAtMinimalBudgetStillLowerBound) {
  const Graph g = MakeChain(5, 2);
  BruteForceScheduler sched(g);
  // Budget 4 = node + parent: enough to slide along the chain.
  const auto result = sched.Run(4);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, 4);
  testing::ExpectValid(g, 4, result.schedule);
}

TEST(BruteForce, InfeasibleBudgetReported) {
  const Graph g = MakeChain(5, 2);
  BruteForceScheduler sched(g);
  EXPECT_FALSE(sched.Run(3).feasible);
  EXPECT_EQ(sched.CostOnly(3), kInfiniteCost);
}

TEST(BruteForce, DiamondReachesLowerBoundAtMinBudget) {
  // Unit weights: computing 2, then 3 (parent 1 still red), then 4 never
  // holds more than three red pebbles, so budget 3 already attains the
  // algorithmic lower bound of 3.
  const Graph g = MakeDiamond();
  BruteForceScheduler sched(g);
  const auto result = sched.Run(3);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, 3);
  testing::ExpectValid(g, 3, result.schedule);
}

// Butterfly: 2 and 3 both read {0, 1}; 4 reads {2, 3}. At budget 3 one of
// the mid nodes must round-trip through slow memory (recomputing it would
// need both sources red alongside its sibling — 4 pebbles), so the optimum
// is inputs + spill + reload + output = 5.
TEST(BruteForce, ButterflyTightBudgetForcesSpill) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddNode(1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  const Graph g = b.BuildOrDie();
  BruteForceScheduler sched(g);

  const auto tight = sched.Run(3);
  ASSERT_TRUE(tight.feasible);
  EXPECT_EQ(tight.cost, 5);
  testing::ExpectValid(g, 3, tight.schedule);

  // With one more pebble both mid values stay resident: cost = LB = 3.
  const auto roomy = sched.Run(4);
  ASSERT_TRUE(roomy.feasible);
  EXPECT_EQ(roomy.cost, 3);
  testing::ExpectValid(g, 4, roomy.schedule);
}

TEST(BruteForce, CostOnlyMatchesRun) {
  const Graph g = MakeDiamond({2, 1, 3, 2, 1});
  BruteForceScheduler sched(g);
  for (Weight b = MinValidBudget(g); b <= MinValidBudget(g) + 4; ++b) {
    EXPECT_EQ(sched.CostOnly(b), sched.Run(b).cost) << "budget " << b;
  }
}

TEST(BruteForce, NeverBeatsAlgorithmicLowerBound) {
  const Graph g = MakeDiamond({2, 1, 3, 2, 1});
  BruteForceScheduler sched(g);
  EXPECT_GE(sched.CostOnly(100), AlgorithmicLowerBound(g));
}

TEST(BruteForce, NeverWorseThanGreedy) {
  const Graph g = MakeDiamond({2, 1, 3, 2, 1});
  BruteForceScheduler brute(g);
  GreedyTopoScheduler greedy(g);
  for (Weight b = MinValidBudget(g); b <= MinValidBudget(g) + 6; b += 2) {
    EXPECT_LE(brute.CostOnly(b), greedy.CostOnly(b)) << "budget " << b;
  }
}

TEST(BruteForce, CostMonotoneInBudget) {
  const Graph g = MakeDiamond({2, 1, 3, 2, 1});
  BruteForceScheduler sched(g);
  Weight prev = kInfiniteCost;
  for (Weight b = MinValidBudget(g); b <= MinValidBudget(g) + 8; ++b) {
    const Weight cost = sched.CostOnly(b);
    EXPECT_LE(cost, prev);
    prev = cost;
  }
}

TEST(BruteForce, MemoryStateInitialRedSkipsRecompute) {
  // Chain 0->1->2: with node 1 initially red, reaching "2 red" costs 0 I/O.
  const Graph g = MakeChain(3, 2);
  BruteForceScheduler sched(g);
  BruteForceOptions options;
  options.initial_red = 0b010;
  options.required_red_at_end = 0b100;
  options.require_sinks_blue = false;
  const auto result = sched.Run(10, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, 0);
}

TEST(BruteForce, MemoryStateReuseBlueAssumption) {
  // Without the initial pebble, computing node 2 red costs the source load.
  const Graph g = MakeChain(3, 2);
  BruteForceScheduler sched(g);
  BruteForceOptions options;
  options.required_red_at_end = 0b100;
  options.require_sinks_blue = false;
  const auto result = sched.Run(10, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, 2);
}

TEST(BruteForce, MemoryStateInitialBlueEnablesLoad) {
  const Graph g = MakeChain(3, 2);
  BruteForceScheduler sched(g);
  BruteForceOptions options;
  options.initial_blue = 0b011;  // source + node 1 spilled earlier
  options.required_red_at_end = 0b100;
  options.require_sinks_blue = false;
  const auto result = sched.Run(4, options);
  ASSERT_TRUE(result.feasible);
  // Load node 1 (2 bits), compute node 2.
  EXPECT_EQ(result.cost, 2);
}

TEST(BruteForce, InitialRedBeyondBudgetInfeasible) {
  const Graph g = MakeChain(3, 2);
  BruteForceScheduler sched(g);
  BruteForceOptions options;
  options.initial_red = 0b011;
  EXPECT_FALSE(sched.Run(3, options).feasible);
}

// Graphs beyond the 32-node packed-mask width route through the wide
// interned-state representation and solve exactly — there is no size at
// which the engines refuse to run. A 33-node unit chain (budget 3, so
// the search stays polynomial-sized) costs exactly load-source +
// store-sink = 2.
TEST(BruteForce, GraphBeyond32NodesSolvesExactly) {
  const Graph g = MakeChain(33, 1);
  BruteForceScheduler sched(g);
  const ScheduleResult result = sched.Run(3);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, AlgorithmicLowerBound(g));
  EXPECT_EQ(result.cost, 2);
  EXPECT_EQ(result.optimality_gap, 0);
  EXPECT_EQ(result.termination, Termination::kOptimal);
  const SimResult sim = testing::ExpectValid(g, 3, result.schedule);
  EXPECT_EQ(sim.cost, result.cost);
  EXPECT_EQ(sched.CostOnly(3), result.cost);
}

// The wide path at a pinching budget: the chain must slide one window of
// two unit nodes at a time, and infeasibility below that is a verdict
// about the instance, not a refusal.
TEST(BruteForce, GraphBeyond32NodesTightBudget) {
  const Graph g = MakeChain(34, 1);
  BruteForceScheduler sched(g);
  const ScheduleResult result = sched.Run(2);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.cost, 2);
  testing::ExpectValid(g, 2, result.schedule);
  EXPECT_FALSE(sched.Run(1).feasible);
}

// Total count of the spans named `name` anywhere in the tree.
std::uint64_t SpanCount(const obs::SpanNode& node, const std::string& name) {
  std::uint64_t count = node.name == name ? node.count : 0;
  for (const obs::SpanNode& child : node.children) {
    count += SpanCount(child, name);
  }
  return count;
}

// The bb engine's work around Searcher::Run has spans of its own: the
// incumbent seeding and the searcher's setup and teardown on every run,
// the canonical reconstruction only when a schedule is wanted.
TEST(BruteForce, BbRunRecordsItsPhaseSpans) {
  const Graph g = MakeDiamond();
  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  obs::ResetSpans();
  EXPECT_NE(BruteForceScheduler(g).CostOnly(3, options), kInfiniteCost);
  obs::SpanNode spans = obs::SnapshotSpans();
  EXPECT_EQ(SpanCount(spans, "search.seed_incumbent"), 1u);
  EXPECT_EQ(SpanCount(spans, "search.setup"), 1u);
  EXPECT_EQ(SpanCount(spans, "search.bb"), 1u);
  EXPECT_EQ(SpanCount(spans, "search.teardown"), 1u);
  EXPECT_EQ(SpanCount(spans, "search.reconstruct"), 0u);

  const ScheduleResult result = BruteForceScheduler(g).Run(3, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.termination, Termination::kOptimal);
  spans = obs::SnapshotSpans();
  EXPECT_EQ(SpanCount(spans, "search.seed_incumbent"), 2u);
  EXPECT_EQ(SpanCount(spans, "search.setup"), 2u);
  EXPECT_EQ(SpanCount(spans, "search.teardown"), 2u);
  EXPECT_EQ(SpanCount(spans, "search.reconstruct"), 1u);
}

}  // namespace
}  // namespace wrbpg
