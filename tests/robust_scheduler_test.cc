// Deadline-aware fallback chain + cooperative cancellation.
//
// Acceptance claim (ISSUE): on a random DAG too large for an exact
// solve, RobustScheduler returns a valid schedule within a 100 ms
// deadline — the bb exact stage contributes its anytime incumbent with
// a certified optimality gap (provenance kAnytimeIncumbent) instead of
// timing out empty-handed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/analysis.h"
#include "core/simulator.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "robust/robust_scheduler.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/kary_tree.h"
#include "tests/test_helpers.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

TEST(CancelToken, ManualCancelIsSharedAcrossCopies) {
  CancelToken token;
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancelToken, ChildFollowsItsParentButNotTheOtherWay) {
  const CancelToken parent;
  const CancelToken child(&parent);
  const CancelToken sibling(&parent);
  EXPECT_FALSE(child.cancelled());
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_FALSE(sibling.cancelled());
  parent.Cancel();
  EXPECT_TRUE(sibling.cancelled());
  const CancelToken orphan(nullptr);
  EXPECT_FALSE(orphan.cancelled());
}

TEST(CancelToken, DeadlineExpiryLatches) {
  const CancelToken token = CancelToken::WithDeadlineMs(0.0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.remaining()->count(), 0);
}

TEST(CancelToken, UncancelledTokenReportsRemainingTime) {
  const CancelToken token = CancelToken::WithDeadlineMs(60'000);
  EXPECT_FALSE(token.cancelled());
  EXPECT_GT(token.remaining()->count(), 0);
  const CancelToken unbounded;
  EXPECT_FALSE(unbounded.remaining().has_value());
}

TEST(CancelToken, BruteForceUnwindsWithTimedOut) {
  const Graph g = testing::MakeDiamond();
  CancelToken token;
  token.Cancel();
  BruteForceOptions options;
  options.cancel = &token;
  const ScheduleResult r =
      BruteForceScheduler(g).Run(MinValidBudget(g) + 2, options);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.feasible);
}

TEST(CancelToken, MaxStatesValveReturnsTimedOutInsteadOfAborting) {
  Rng rng(0xabcdu);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 4,
                                         .nodes_per_layer = 4,
                                         .max_in_degree = 3});
  BruteForceOptions options;
  options.max_states = 100;  // far too few for a 16-node search
  const ScheduleResult r =
      BruteForceScheduler(dag).Run(MinValidBudget(dag) + 8, options);
  EXPECT_TRUE(r.timed_out);
}

TEST(CancelToken, BudgetSearchReturnsNulloptWhenCancelled) {
  const Graph g = testing::MakeChain(6);
  BruteForceScheduler sched(g);
  const CostFn cost_fn = [&](Weight b) { return sched.CostOnly(b); };
  CancelToken token;
  token.Cancel();
  MinMemoryOptions options;
  options.hi = 16;
  options.cancel = &token;
  EXPECT_FALSE(
      FindMinimumFastMemory(cost_fn, AlgorithmicLowerBound(g), options)
          .has_value());
}

TEST(CancelToken, DwtDpUnwindsAndStaysCorrectAfterCancellation) {
  const DwtGraph dwt = BuildDwt(32, 3);
  const Weight budget = MinValidBudget(dwt.graph) + 8;
  const Weight honest = DwtOptimalScheduler(dwt).CostOnly(budget);
  ASSERT_LT(honest, kInfiniteCost);

  // Cancel against a FRESH instance so the memo tables are cold; warm
  // memo entries are honest results and may legitimately answer anyway.
  DwtOptimalScheduler sched(dwt);
  CancelToken token;
  token.Cancel();
  EXPECT_EQ(sched.CostOnly(budget, &token), kInfiniteCost);
  EXPECT_TRUE(sched.Run(budget, &token).timed_out);

  // A cancelled run must not have polluted the memo tables: the same
  // scheduler instance still produces the honest answer afterwards.
  EXPECT_EQ(sched.CostOnly(budget), honest);
}

// Both DPs read their token's clock on one memo miss in 64. A deadline
// that expires while they recurse still unwinds them to kInfiniteCost (no
// finite cost from a half-evaluated recursion), and each instance stays
// honest afterwards.
TEST(CancelToken, DpsHonorADeadlineThatExpiresMidRun) {
  const DwtGraph dwt = BuildDwt(4096, 12);
  DwtOptimalScheduler dwt_dp(dwt);
  const CancelToken dwt_token = CancelToken::WithDeadlineMs(0.5);
  EXPECT_EQ(dwt_dp.CostOnly(200, &dwt_token), kInfiniteCost);
  EXPECT_TRUE(dwt_dp.Run(200, &dwt_token).timed_out);
  EXPECT_EQ(dwt_dp.CostOnly(200), 131168);

  const Graph tree = BuildPerfectTree(2, 12).graph;
  KaryTreeScheduler kary_dp(tree);
  const CancelToken kary_token = CancelToken::WithDeadlineMs(0.5);
  EXPECT_EQ(kary_dp.CostOnly(112, &kary_token), kInfiniteCost);
  EXPECT_TRUE(kary_dp.Run(112, &kary_token).timed_out);
  EXPECT_EQ(kary_dp.CostOnly(112), 69616);
}

TEST(RobustScheduler, ExactStageWinsOnSmallGraphs) {
  const Graph g = testing::MakeDiamond({3, 5, 7, 11, 13});
  const Weight budget = MinValidBudget(g) + 4;
  const RobustResult r = RobustScheduler(g).Run(budget);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.winner, "exact");
  EXPECT_EQ(r.stage("exact")->outcome, StageOutcome::kWinner);
  EXPECT_EQ(r.result.cost, BruteForceScheduler(g).CostOnly(budget));
  testing::ExpectValid(g, budget, r.result.schedule);
  // The heuristics never ran: an optimal answer settles the chain.
  EXPECT_EQ(r.stage("belady")->outcome, StageOutcome::kNotRun);
  EXPECT_EQ(r.stage("greedy-topo")->outcome, StageOutcome::kNotRun);
}

TEST(RobustScheduler, OversizedGraphSkipsExactWithAReason) {
  Rng rng(0x9e1u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                         .nodes_per_layer = 6,
                                         .max_in_degree = 3});
  ASSERT_GT(dag.num_nodes(), RobustOptions{}.exact_max_nodes);
  const Weight budget = MinValidBudget(dag) + 16;
  const RobustResult r = RobustScheduler(dag).Run(budget);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.stage("exact")->outcome, StageOutcome::kSkipped);
  EXPECT_FALSE(r.stage("exact")->detail.empty());
  EXPECT_TRUE(r.winner == "belady" || r.winner == "greedy-topo") << r.winner;
  testing::ExpectValid(dag, budget, r.result.schedule);
}

// The acceptance scenario: a DAG whose state space no exact engine can
// exhaust in the slice, a 100 ms total deadline. The bb exact stage runs
// (under a deadline it runs at ANY size), is interrupted, and still
// contributes a valid schedule — either a proven optimum if the search
// happened to finish, or an anytime incumbent with a certified gap. The
// chain answers within milliseconds either way.
TEST(RobustScheduler, DeadlineAnswersWithin100MsAndSoundGap) {
  Rng rng(0xdead11u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 8,
                                         .nodes_per_layer = 8,
                                         .max_in_degree = 3});
  ASSERT_EQ(dag.num_nodes(), 64u);  // far beyond the packed 32-node wall
  const Weight budget = MinValidBudget(dag) + 32;

  RobustOptions options;
  options.deadline_ms = 100;

  const auto start = std::chrono::steady_clock::now();
  const RobustResult r = RobustScheduler(dag).Run(budget, options);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(r.result.feasible);
  testing::ExpectValid(dag, budget, r.result.schedule);
  // The exact stage ran and produced something — never a bare timeout,
  // never a skip: the bb engine always holds its seeded incumbent.
  const StageOutcome exact = r.stage("exact")->outcome;
  EXPECT_TRUE(exact == StageOutcome::kAnytimeIncumbent ||
              exact == StageOutcome::kWinner ||
              exact == StageOutcome::kCandidate)
      << ToString(exact);
  // Anytime contract on the chain's result.
  EXPECT_LE(r.result.lower_bound, r.result.cost);
  EXPECT_GE(r.result.lower_bound, AlgorithmicLowerBound(dag));
  EXPECT_EQ(r.result.optimality_gap, r.result.cost - r.result.lower_bound);
  // Generous multiple of the deadline to stay robust on loaded CI
  // machines; the point is "milliseconds, not the heat death of 4^64".
  EXPECT_LT(elapsed_ms, 2000.0);
}

// Provenance of an interrupted exact stage: with a deadline short enough
// that the 64-node search cannot possibly be exhausted, the exact stage
// reports kAnytimeIncumbent and its detail carries the certified gap.
TEST(RobustScheduler, InterruptedExactStageReportsAnytimeIncumbent) {
  Rng rng(0xdead11u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 10,
                                         .nodes_per_layer = 8,
                                         .max_in_degree = 3});
  ASSERT_EQ(dag.num_nodes(), 80u);
  const Weight budget = MinValidBudget(dag) + 32;

  RobustOptions options;
  options.deadline_ms = 60;
  const RobustResult r = RobustScheduler(dag).Run(budget, options);

  ASSERT_TRUE(r.result.feasible);
  testing::ExpectValid(dag, budget, r.result.schedule);
  const StageReport* exact = r.stage("exact");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->outcome, StageOutcome::kAnytimeIncumbent);
  EXPECT_NE(exact->detail.find("anytime incumbent"), std::string::npos)
      << exact->detail;
  EXPECT_LT(exact->cost, kInfiniteCost);
}

// A DWT caller hands over the plain graph like everyone else: recognition
// is the chain's one route to Algorithm 1, and its proven optimum ends the
// chain before the exact stage.
TEST(RobustScheduler, DwtChainLetsAlgorithmOneWin) {
  const DwtGraph dwt = BuildDwt(64, 2);
  const Weight budget = MinValidBudget(dwt.graph) + 8;
  const RobustResult r = RobustScheduler(dwt.graph).Run(budget);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.winner, "recognition");
  EXPECT_EQ(r.stage("exact")->outcome, StageOutcome::kNotRun);
  EXPECT_EQ(r.result.cost,
            DwtOptimalScheduler(dwt).CostOnly(budget));
  testing::ExpectValid(dwt.graph, budget, r.result.schedule);
}

// A bare 31-node graph that happens to be kary(2,4): too large for the
// exact stage (no deadline => size gate applies), but the recognition
// stage identifies the family and routes it to the closed-form DP — the
// chain returns the proven optimum without ever falling to heuristics.
TEST(RobustScheduler, RecognitionStageWinsOnUnlabeledKaryTree) {
  const Graph tree = BuildPerfectTree(2, 4).graph;
  ASSERT_GT(tree.num_nodes(), RobustOptions{}.exact_max_nodes);
  const Weight budget = MinValidBudget(tree);
  const RobustResult r = RobustScheduler(tree).Run(budget);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.winner, "recognition");
  EXPECT_EQ(r.stage("recognition")->outcome, StageOutcome::kWinner);
  EXPECT_EQ(r.result.cost, KaryTreeScheduler(tree).CostOnly(budget));
  EXPECT_EQ(r.result.termination, Termination::kOptimal);
  testing::ExpectValid(tree, budget, r.result.schedule);
  // Proven optimal: the heuristic stages never ran.
  EXPECT_EQ(r.stage("belady")->outcome, StageOutcome::kNotRun);
  EXPECT_EQ(r.stage("greedy-topo")->outcome, StageOutcome::kNotRun);
}

// Same for a bare dwt(16,2) graph: recognition rediscovers (n, d), runs
// Algorithm 1 on the reference graph, and remaps the schedule back onto
// the caller's node ids — the remapped schedule must still simulate.
TEST(RobustScheduler, RecognitionStageWinsOnUnlabeledDwtGraph) {
  const DwtGraph dwt = BuildDwt(16, 2);
  const Graph& g = dwt.graph;  // plain Graph: no DwtGraph handed over
  const Weight budget = MinValidBudget(g) + 2;
  const RobustResult r = RobustScheduler(g).Run(budget);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.winner, "recognition");
  EXPECT_EQ(r.result.cost, DwtOptimalScheduler(dwt).CostOnly(budget));
  EXPECT_EQ(r.result.termination, Termination::kOptimal);
  testing::ExpectValid(g, budget, r.result.schedule);
}

// A bare, relabeled dwt(1024,10) under a 500 ms deadline: the pre-stage
// (certificates, recognition) runs outside the deadline, so it must stay
// cheap enough for the recognized DWT's DP to finish inside the deadline
// and win with the proven optimum.
TEST(RobustScheduler, RecognitionWinsOnLargePermutedDwtUnderDeadline) {
  const DwtGraph dwt = BuildDwt(1024, 10);
  const Graph bare = testing::PermuteGraph(dwt.graph, 0x5eedu);
  const Weight budget = 96;
  RobustOptions options;
  options.deadline_ms = 500;
  options.threads = 1;
  const RobustResult r = RobustScheduler(bare).Run(budget, options);
  ASSERT_TRUE(r.result.feasible);
  EXPECT_EQ(r.winner, "recognition");
  EXPECT_EQ(r.result.termination, Termination::kOptimal);
  EXPECT_EQ(r.result.cost, DwtOptimalScheduler(dwt).CostOnly(budget));
  EXPECT_EQ(r.result.cost, 34784);
  testing::ExpectValid(bare, budget, r.result.schedule);
}

// The pre-stage has one span, with a child per piece of work, under the
// chain's robust.run span.
TEST(RobustScheduler, PreStageWorkHasSpansUnderRobustRun) {
  const Graph g = BuildPerfectTree(2, 4).graph;
  (void)RobustScheduler(g).Run(MinValidBudget(g));
  auto child = [](const obs::SpanNode& node, const std::string& name) {
    for (const obs::SpanNode& c : node.children) {
      if (c.name == name) return c;
    }
    ADD_FAILURE() << "span '" << name << "' not found under '" << node.name
                  << "'";
    return obs::SpanNode{};
  };
  const obs::SpanNode prestage =
      child(child(obs::SnapshotSpans(), "robust.run"), "robust.prestage");
  EXPECT_GE(prestage.count, 1u);
  for (const char* name :
       {"robust.prestage.certified_bound", "robust.prestage.recognize"}) {
    EXPECT_GE(child(prestage, name).count, 1u) << name;
  }
}

// The chain runs its stages one after another at any thread count, so a
// proven answer ends it at once: the 2 s deadline is never waited out,
// and no later stage — not even the exact stage's search — starts.
TEST(RobustScheduler, ProvenAnswerEndsTheChainAtAnyThreadCount) {
  const Graph bare =
      testing::PermuteGraph(BuildPerfectTree(2, 4).graph, 0x7a11u);
  const Weight budget = MinValidBudget(bare);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    RobustOptions options;
    options.deadline_ms = 2000;
    options.threads = threads;
    const std::uint64_t searches = obs::ReadMetric("search.runs");
    const auto start = std::chrono::steady_clock::now();
    const RobustResult r = RobustScheduler(bare).Run(budget, options);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_TRUE(r.result.feasible) << threads;
    EXPECT_EQ(r.winner, "recognition") << threads;
    for (const char* later : {"exact", "belady", "greedy-topo"}) {
      EXPECT_EQ(r.stage(later)->outcome, StageOutcome::kNotRun)
          << later << " at " << threads << " threads";
    }
    EXPECT_EQ(obs::ReadMetric("search.runs"), searches) << threads;
    EXPECT_LT(elapsed_ms, 1000.0) << threads;
  }
}

TEST(RobustScheduler, HeuristicsBeatNothingButStillReportCandidates) {
  // With slack, belady and greedy both succeed; the cheaper one wins and
  // the other is recorded as a candidate (or both tie on cost).
  Rng rng(0x70b0u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 5,
                                         .nodes_per_layer = 5,
                                         .max_in_degree = 2});
  const Weight budget = MinValidBudget(dag) + 64;
  RobustOptions options;
  options.exact_max_nodes = 0;
  const RobustResult r = RobustScheduler(dag).Run(budget, options);
  ASSERT_TRUE(r.result.feasible);
  const StageReport* belady = r.stage("belady");
  const StageReport* greedy = r.stage("greedy-topo");
  ASSERT_NE(belady, nullptr);
  ASSERT_NE(greedy, nullptr);
  EXPECT_TRUE(belady->outcome == StageOutcome::kWinner ||
              belady->outcome == StageOutcome::kCandidate);
  EXPECT_TRUE(greedy->outcome == StageOutcome::kWinner ||
              greedy->outcome == StageOutcome::kCandidate);
  const Weight winning_cost = r.result.cost;
  EXPECT_LE(winning_cost, belady->cost);
  EXPECT_LE(winning_cost, greedy->cost);
}

TEST(RobustScheduler, InfeasibleBudgetReportsEveryStageInfeasible) {
  const Graph g = testing::MakeDiamond({8, 8, 8, 8, 8});
  const Weight budget = MinValidBudget(g) - 1;
  const RobustResult r = RobustScheduler(g).Run(budget);
  EXPECT_FALSE(r.result.feasible);
  EXPECT_TRUE(r.winner.empty());
  for (const StageReport& stage : r.stages) {
    EXPECT_TRUE(stage.outcome == StageOutcome::kInfeasible ||
                stage.outcome == StageOutcome::kSkipped)
        << stage.name << ": " << ToString(stage.outcome);
  }
}

}  // namespace
}  // namespace wrbpg
