// The anytime contract (DESIGN.md §11): every feasible result of the bb
// engine satisfies
//
//   lower_bound <= optimal <= cost,   optimality_gap == cost - lower_bound
//
// with `termination` recording why the search stopped. On runs that
// complete, the gap closes to zero and the result is BIT-IDENTICAL to the
// astar optimum at every thread count. On interrupted runs —
// deadline, state cap, byte cap, or a pre-expired token — the engine
// returns its seeded incumbent instead of failing, and the certified gap
// sandwiches the (independently computed) optimum.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/simulator.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "schedulers/brute_force.h"
#include "tests/test_helpers.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

using testing::MakeChain;
using testing::MakeDiamond;

// Property on <= 32-node families: interrupt bb at an effectively-zero
// deadline and sandwich its certified bounds around the true optimum
// (computed by the uninformed dijkstra engine). When the gap is zero the
// incumbent IS the optimum.
void ExpectSandwich(const Graph& graph, Weight budget,
                    const std::string& label) {
  const BruteForceScheduler scheduler(graph);

  BruteForceOptions exact;
  exact.engine = SearchEngine::kDijkstra;
  exact.threads = 1;
  const Weight optimal = scheduler.CostOnly(budget, exact);

  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  const CancelToken token = CancelToken::WithDeadlineMs(0.0);
  options.cancel = &token;
  const ScheduleResult result = scheduler.Run(budget, options);

  if (optimal >= kInfiniteCost) {
    // bb's incumbent seeding cannot conjure a schedule for an infeasible
    // instance; whatever it reports must not claim feasibility.
    EXPECT_FALSE(result.feasible) << label;
    return;
  }
  ASSERT_TRUE(result.feasible) << label << ": anytime bb returned nothing "
                               << "on a feasible instance";
  EXPECT_LE(result.lower_bound, optimal) << label;
  EXPECT_GE(result.cost, optimal) << label;
  EXPECT_EQ(result.optimality_gap, result.cost - result.lower_bound)
      << label;
  const SimResult sim = testing::ExpectValid(graph, budget, result.schedule);
  EXPECT_EQ(sim.cost, result.cost) << label;
  if (result.optimality_gap == 0) {
    EXPECT_EQ(result.cost, optimal) << label;
    EXPECT_EQ(result.termination, Termination::kOptimal) << label;
  }
}

TEST(AnytimeContract, SandwichOnSmallFamilies) {
  {
    const Graph g = MakeDiamond({2, 3, 1, 2, 4});
    const Weight lo = MinValidBudget(g);
    for (const Weight budget : {lo - 1, lo, lo + 2, 2 * lo}) {
      ExpectSandwich(g, budget, "diamond budget=" + std::to_string(budget));
    }
  }
  {
    const Graph g = MakeChain(6, 2);
    const Weight lo = MinValidBudget(g);
    for (const Weight budget : {lo, lo + 2}) {
      ExpectSandwich(g, budget, "chain6 budget=" + std::to_string(budget));
    }
  }
  {
    const DwtGraph dwt = BuildDwt(4, 2);
    const Weight lo = MinValidBudget(dwt.graph);
    for (const Weight budget : {lo, lo + 3}) {
      ExpectSandwich(dwt.graph, budget,
                     "dwt(4,2) budget=" + std::to_string(budget));
    }
  }
  {
    const TreeGraph tree = BuildPerfectTree(2, 2);
    const Weight lo = MinValidBudget(tree.graph);
    ExpectSandwich(tree.graph, lo + 1, "kary(2,2)");
  }
}

// A completed bb run (no deadline) is bit-identical to astar — same cost,
// same canonical schedule — at 1, 2, and 8 threads.
TEST(AnytimeContract, CompletedRunBitMatchesAStar) {
  const DwtGraph dwt = BuildDwt(8, 1);
  const Weight budget = MinValidBudget(dwt.graph) + 2;
  const BruteForceScheduler scheduler(dwt.graph);

  BruteForceOptions ref_options;
  ref_options.engine = SearchEngine::kAStar;
  ref_options.threads = 1;
  const ScheduleResult ref = scheduler.Run(budget, ref_options);
  ASSERT_TRUE(ref.feasible);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    BruteForceOptions options;
    options.engine = SearchEngine::kBranchAndBound;
    options.threads = threads;
    const ScheduleResult got = scheduler.Run(budget, options);
    ASSERT_TRUE(got.feasible) << "threads=" << threads;
    EXPECT_EQ(got.cost, ref.cost) << "threads=" << threads;
    EXPECT_TRUE(got.schedule == ref.schedule)
        << "threads=" << threads << ": schedules differ\nref:\n"
        << ref.schedule.ToString() << "got:\n"
        << got.schedule.ToString();
    EXPECT_EQ(got.lower_bound, got.cost);
    EXPECT_EQ(got.optimality_gap, 0);
    EXPECT_EQ(got.termination, Termination::kOptimal);
  }
}

// Beyond the 32-node packed wall: random DAG fuzz under tight deadlines.
// Every interrupted result must be a simulator-valid schedule with an
// internally consistent, finite gap whose lower bound clears Prop 2.4.
TEST(AnytimeContract, WideGraphDeadlineFuzz) {
  Rng rng(0xa17e5u);
  RandomDagOptions dag_options;
  dag_options.num_layers = 7;
  dag_options.nodes_per_layer = 6;  // 42 nodes: wide path, packed is gone
  for (int instance = 0; instance < 4; ++instance) {
    const Graph graph = BuildRandomDag(rng, dag_options);
    ASSERT_GT(graph.num_nodes(), 32u);
    const Weight budget = MinValidBudget(graph) + 16;
    const BruteForceScheduler scheduler(graph);
    for (const double deadline_ms : {0.0, 5.0}) {
      BruteForceOptions options;
      options.engine = SearchEngine::kBranchAndBound;
      const CancelToken token = CancelToken::WithDeadlineMs(deadline_ms);
      options.cancel = &token;
      const ScheduleResult result = scheduler.Run(budget, options);
      const std::string label = "instance=" + std::to_string(instance) +
                                " deadline=" + std::to_string(deadline_ms);
      ASSERT_TRUE(result.feasible) << label;
      const SimResult sim =
          testing::ExpectValid(graph, budget, result.schedule);
      EXPECT_EQ(sim.cost, result.cost) << label;
      EXPECT_GE(result.lower_bound, AlgorithmicLowerBound(graph)) << label;
      EXPECT_LE(result.lower_bound, result.cost) << label;
      EXPECT_EQ(result.optimality_gap, result.cost - result.lower_bound)
          << label;
      EXPECT_LT(result.optimality_gap, kInfiniteCost) << label;
    }
  }
}

// A pre-expired token returns the incumbent immediately — the "never fail
// to return a schedule" guarantee at its most extreme.
TEST(AnytimeContract, ExpiredTokenStillReturnsIncumbent) {
  Rng rng(0xdead21u);
  RandomDagOptions dag_options;
  dag_options.num_layers = 8;
  dag_options.nodes_per_layer = 8;
  const Graph graph = BuildRandomDag(rng, dag_options);
  const Weight budget = MinValidBudget(graph) + 24;

  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  CancelToken token;
  token.Cancel();
  options.cancel = &token;
  const ScheduleResult result =
      BruteForceScheduler(graph).Run(budget, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.termination, Termination::kCancelled);
  testing::ExpectValid(graph, budget, result.schedule);
  EXPECT_EQ(result.optimality_gap, result.cost - result.lower_bound);
}

// The max_states safety valve is an incumbent-return for bb, not a
// timeout: a starved search still ships a valid schedule with its gap.
TEST(AnytimeContract, StateCapReturnsIncumbent) {
  Rng rng(0x57a7eu);
  RandomDagOptions dag_options;
  dag_options.num_layers = 6;
  dag_options.nodes_per_layer = 6;
  const Graph graph = BuildRandomDag(rng, dag_options);
  const Weight budget = MinValidBudget(graph) + 16;

  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  options.max_states = 200;  // starve the search almost immediately
  const ScheduleResult result =
      BruteForceScheduler(graph).Run(budget, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.termination, Termination::kMemoryCap);
  testing::ExpectValid(graph, budget, result.schedule);
  EXPECT_LE(result.lower_bound, result.cost);
  EXPECT_EQ(result.optimality_gap, result.cost - result.lower_bound);
}

// Same for the frontier byte budget: exhausting it is an orderly
// incumbent-return, never an OOM or an abort.
TEST(AnytimeContract, ByteCapReturnsIncumbent) {
  Rng rng(0xb17ec0u);
  RandomDagOptions dag_options;
  dag_options.num_layers = 7;
  dag_options.nodes_per_layer = 6;
  const Graph graph = BuildRandomDag(rng, dag_options);
  const Weight budget = MinValidBudget(graph) + 16;

  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  options.frontier_bytes_cap = 1;  // any first wave-boundary sample trips
  const ScheduleResult result =
      BruteForceScheduler(graph).Run(budget, options);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.termination, Termination::kMemoryCap);
  testing::ExpectValid(graph, budget, result.schedule);
  EXPECT_EQ(result.optimality_gap, result.cost - result.lower_bound);
}

// The deadline holds even when the frontier is one enormous wave: the
// move-count poll inside expansion chunks must notice mid-wave. A 64-node
// graph at a 25 ms deadline has to come back in well under a second.
TEST(AnytimeContract, DeadlineHoldsInsideLargeWaves) {
  Rng rng(42);
  RandomDagOptions dag_options;
  dag_options.num_layers = 8;
  dag_options.nodes_per_layer = 8;
  const Graph graph = BuildRandomDag(rng, dag_options);
  const Weight budget = MinValidBudget(graph) + 39;

  BruteForceOptions options;
  options.engine = SearchEngine::kBranchAndBound;
  const CancelToken token = CancelToken::WithDeadlineMs(25.0);
  options.cancel = &token;

  const auto start = std::chrono::steady_clock::now();
  const ScheduleResult result =
      BruteForceScheduler(graph).Run(budget, options);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(result.feasible);
  testing::ExpectValid(graph, budget, result.schedule);
  // Generous on loaded CI machines, but far below what ignoring the
  // deadline for even one full 64-node wave would cost.
  EXPECT_LT(elapsed_ms, 1500.0);
}

}  // namespace
}  // namespace wrbpg
