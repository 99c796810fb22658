// Design-space explorer (src/explore/) contract tests: grid properties,
// the DESIGN.md §8 cross-thread bit-identity promise, rows certified past
// the knee (§15.1–15.3), and tamper rejection by the independent frontier
// verifier.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "explore/explore.h"
#include "explore/report.h"
#include "ganalysis/bounds.h"
#include "hardware/sram_model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/brute_force.h"
#include "tests/test_helpers.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

// kary:2,3 explores in a few ms at the default max_states; dwt would work
// too but is slower — the properties are the same.
ExploreResult ExploreKary(std::size_t threads = 1) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  EXPECT_TRUE(built.ok) << built.error;
  ExploreOptions options;
  options.threads = threads;
  return Explore(built.graph(), options);
}

ExplorePoint MakePoint(double area, double leakage, double energy,
                       Weight io_cost) {
  ExplorePoint p;
  p.area_lambda2 = area;
  p.leakage_mw = leakage;
  p.energy_nj = energy;
  p.io_cost = io_cost;
  return p;
}

TEST(ExploreGrid, ProducesNonEmptyCertifiedFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.points.empty());
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_EQ(result.dominated, result.points.size() - result.frontier.size());
  EXPECT_GT(result.budgets_scanned, 0u);

  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  const Weight floor = MinValidBudget(built.graph());
  for (const ExplorePoint& p : result.points) {
    // Every point carries the anytime certificate.
    EXPECT_GE(p.lower_bound, 0);
    EXPECT_GE(p.io_cost, p.lower_bound);
    EXPECT_EQ(p.gap, p.io_cost - p.lower_bound);
    // The band never dips below the Prop 2.3 schedulability floor.
    EXPECT_GE(p.budget, floor);
    // The macro is the power-of-two round-up of the budget.
    EXPECT_EQ(p.capacity_bits, PowerOfTwoCapacity(p.budget));
    // Costs a synthesized macro can produce are non-negative.
    EXPECT_GE(p.area_lambda2, 0);
    EXPECT_GE(p.leakage_mw, 0);
    EXPECT_GE(p.energy_nj, 0);
  }
}

TEST(ExploreGrid, PointsAreBudgetMajorWordMinor) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    const ExplorePoint& a = result.points[i - 1];
    const ExplorePoint& b = result.points[i];
    EXPECT_TRUE(a.budget < b.budget ||
                (a.budget == b.budget && a.word_bits < b.word_bits))
        << "grid order broken at index " << i;
  }
}

TEST(ExploreGrid, EveryPointResynthesizesWithCapacityInvariant) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  for (const ExplorePoint& p : result.points) {
    const SramSynthesisResult synth =
        TrySynthesizeSram(p.capacity_bits, p.word_bits);
    ASSERT_TRUE(synth.ok()) << synth.message;
    EXPECT_GE(synth.macro.physical_bits(), p.capacity_bits);
    EXPECT_EQ(synth.macro.physical_bits(),
              p.capacity_bits + synth.macro.padding_bits);
  }
}

TEST(ExploreDeterminism, BitIdenticalAcrossThreadCounts) {
  const ExploreResult t1 = ExploreKary(1);
  ASSERT_TRUE(t1.ok) << t1.error;
  const std::uint64_t h1 = FrontierHash(t1);
  for (const std::size_t threads : {2u, 8u}) {
    const ExploreResult tn = ExploreKary(threads);
    ASSERT_TRUE(tn.ok) << tn.error;
    EXPECT_EQ(FrontierHash(tn), h1) << "threads=" << threads;
    ASSERT_EQ(tn.points.size(), t1.points.size());
    for (std::size_t i = 0; i < t1.points.size(); ++i) {
      const ExplorePoint& a = t1.points[i];
      const ExplorePoint& b = tn.points[i];
      EXPECT_EQ(a.budget, b.budget);
      EXPECT_EQ(a.io_cost, b.io_cost);
      EXPECT_EQ(a.lower_bound, b.lower_bound);
      EXPECT_EQ(a.gap, b.gap);
      EXPECT_EQ(a.bits_loaded, b.bits_loaded);
      EXPECT_EQ(a.bits_stored, b.bits_stored);
      EXPECT_EQ(a.on_frontier, b.on_frontier);
      // Doubles compare exactly: same inputs, same arithmetic, same bits.
      EXPECT_EQ(a.area_lambda2, b.area_lambda2);
      EXPECT_EQ(a.energy_nj, b.energy_nj);
    }
    EXPECT_EQ(tn.frontier, t1.frontier);
  }
}

// One budget's row as a fresh search prices it: the bb engine with the
// options Explore solves under.
struct FreshRow {
  bool feasible = false;
  Weight cost = 0;
  Weight lower_bound = 0;
  Weight gap = 0;
  Termination termination = Termination::kComplete;
  Weight bits_loaded = 0;
  Weight bits_stored = 0;
};

FreshRow FreshSearch(const Graph& graph, Weight budget,
                     const ExploreOptions& options) {
  BruteForceOptions bf;
  bf.engine = SearchEngine::kBranchAndBound;
  bf.max_states = options.max_states;
  bf.threads = 1;
  bf.root_lower_bound = BestCertifiedBound(graph, budget);
  const ScheduleResult result = BruteForceScheduler(graph).Run(budget, bf);
  FreshRow row;
  row.feasible = result.feasible;
  if (!result.feasible) return row;
  row.cost = result.cost;
  row.lower_bound = result.lower_bound;
  row.gap = result.optimality_gap;
  row.termination = result.termination;
  for (const Move& move : result.schedule) {
    if (move.type == MoveType::kLoad) row.bits_loaded += graph.weight(move.node);
    if (move.type == MoveType::kStore) row.bits_stored += graph.weight(move.node);
  }
  return row;
}

void ExpectPointIs(const ExplorePoint& point, const FreshRow& row,
                   const std::string& label) {
  const std::string at = label + " @" + std::to_string(point.budget);
  EXPECT_TRUE(row.feasible) << at;
  EXPECT_EQ(point.io_cost, row.cost) << at;
  EXPECT_EQ(point.lower_bound, row.lower_bound) << at;
  EXPECT_EQ(point.gap, row.gap) << at;
  EXPECT_EQ(point.termination, row.termination) << at;
  EXPECT_EQ(point.bits_loaded, row.bits_loaded) << at;
  EXPECT_EQ(point.bits_stored, row.bits_stored) << at;
}

// Explores `graph` at 1, 2 and 8 threads and checks every point against a
// fresh search at its budget, plus the infeasible and certified counts.
void ExpectRowsAreFreshSearches(const Graph& graph, ExploreOptions options,
                                const std::string& label) {
  options.threads = 1;
  const ExploreResult first = Explore(graph, options);
  ASSERT_TRUE(first.ok) << label << ": " << first.error;
  std::vector<FreshRow> fresh;
  std::size_t infeasible = 0;
  std::size_t knee = first.budgets_scanned;
  for (Weight b = first.budget_lo; b <= first.budget_hi;
       b += first.budget_step) {
    fresh.push_back(FreshSearch(graph, b, options));
    if (!fresh.back().feasible) ++infeasible;
    if (knee == first.budgets_scanned && fresh.back().feasible &&
        fresh.back().cost == AlgorithmicLowerBound(graph)) {
      knee = fresh.size() - 1;
    }
  }
  ASSERT_EQ(fresh.size(), first.budgets_scanned) << label;
  const std::size_t certified =
      knee < fresh.size() ? fresh.size() - knee - 1 : 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.threads = threads;
    const ExploreResult result = Explore(graph, options);
    const std::string at = label + " threads=" + std::to_string(threads);
    ASSERT_TRUE(result.ok) << at << ": " << result.error;
    EXPECT_EQ(result.infeasible_budgets, infeasible) << at;
    EXPECT_EQ(result.budgets_certified, certified) << at;
    for (const ExplorePoint& point : result.points) {
      const Weight index = (point.budget - result.budget_lo) /
                           result.budget_step;
      ExpectPointIs(point, fresh[static_cast<std::size_t>(index)], at);
    }
    EXPECT_EQ(FrontierHash(result), FrontierHash(first)) << at;
  }
}

// Explore's derived band, and a pinned band that starts below the Prop 2.3
// floor so infeasible rows come first.
void ExpectBothBandsAreFreshSearches(const Graph& graph,
                                     const std::string& label) {
  ExpectRowsAreFreshSearches(graph, {}, label + " derived");
  ExploreOptions pinned;
  const Weight floor = MinValidBudget(graph);
  pinned.budget_lo = std::max<Weight>(1, floor - pinned.budget_step);
  pinned.budget_hi = floor + 6 * pinned.budget_step;
  ExpectRowsAreFreshSearches(graph, pinned, label + " pinned");
}

TEST(ExploreCertified, RowsEqualFreshSearchesOnBuiltins) {
  for (const char* spec : {"kary:2,2", "dwt:4,1", "dwt:4,2", "mvm:2,2",
                           "kary:2,3", "butterfly:4"}) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    ASSERT_TRUE(built.ok) << built.error;
    ExpectBothBandsAreFreshSearches(built.graph(), spec);
  }
}

TEST(ExploreCertified, RowsEqualFreshSearchesOnRandomDags) {
  RandomDagOptions dag;
  dag.num_layers = 3;
  dag.nodes_per_layer = 4;
  dag.min_weight = 4;
  dag.max_weight = 24;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Graph graph = BuildRandomDag(rng, dag);
    ASSERT_LE(graph.num_nodes(), 12u);
    ExpectBothBandsAreFreshSearches(graph,
                                    "random seed " + std::to_string(seed));
  }
}

// kary(2,2) plus an isolated 16-bit node: the optimum is 112 at budget 48
// and 80 from 64 up. 112 is also what the Prop 2.4 bound read when it
// counted the isolated node twice, so a knee taken from that sum would
// copy 112 into every larger budget.
TEST(ExploreCertified, IsolatedNodeDoesNotMoveTheKnee) {
  const Graph graph =
      testing::WithIsolatedNode(BuildPerfectTree(2, 2).graph, 16);
  ExploreOptions options;
  options.budget_lo = 48;
  options.budget_hi = 112;
  options.word_bits = {16};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.threads = threads;
    const ExploreResult result = Explore(graph, options);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.points.size(), 5u);
    EXPECT_EQ(result.points[0].io_cost, 112);
    for (std::size_t i = 1; i < result.points.size(); ++i) {
      const ExplorePoint& p = result.points[i];
      EXPECT_EQ(p.io_cost, 80) << "@" << p.budget;
      EXPECT_EQ(p.gap, 0) << "@" << p.budget;
    }
    EXPECT_EQ(result.budgets_certified, 3u);
  }
}

// dwt(8,2) at max_states 5000: budget 64 is the first whose optimum meets
// the Prop 2.4 bound, and a fresh search at 80 stops at the cap with a
// gap. Explore prices 80 and up from the budget-64 row: proven optimal.
TEST(ExploreCertified, RowsPastTheKneeAreOptimalWhereASearchWouldCap) {
  const BuiltinGraph built = BuildBuiltinGraph("dwt:8,2");
  ASSERT_TRUE(built.ok) << built.error;
  const Graph& graph = built.graph();
  const Weight bound = AlgorithmicLowerBound(graph);
  ExploreOptions options;
  options.max_states = 5000;
  options.word_bits = {16};
  const FreshRow below = FreshSearch(graph, 48, options);
  const FreshRow knee = FreshSearch(graph, 64, options);
  ASSERT_NE(below.cost, bound);
  ASSERT_EQ(knee.cost, bound);
  const FreshRow capped = FreshSearch(graph, 80, options);
  ASSERT_EQ(capped.termination, Termination::kMemoryCap);
  ASSERT_GT(capped.gap, 0);

  for (const std::size_t threads : {1u, 8u}) {
    options.threads = threads;
    const ExploreResult result = Explore(graph, options);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.budget_lo, 48);
    ASSERT_GE(result.points.size(), 3u);
    EXPECT_EQ(result.budgets_certified, result.points.size() - 2);
    ExpectPointIs(result.points[0], below, "dwt");
    ExpectPointIs(result.points[1], knee, "dwt");
    for (std::size_t i = 2; i < result.points.size(); ++i) {
      const ExplorePoint& p = result.points[i];
      ExpectPointIs(p, knee, "dwt certified");
      EXPECT_EQ(p.gap, 0) << "@" << p.budget;
      EXPECT_EQ(p.termination, Termination::kOptimal) << "@" << p.budget;
    }
  }
}

// explore.solve spans count the searches; the counter counts the rows
// copied without one.
TEST(ExploreCertified, SpansCountOnlySearchedBudgets) {
  obs::ResetMetrics();
  obs::ResetSpans();
  const ExploreResult result = ExploreKary(1);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.budgets_certified, 0u);
  EXPECT_EQ(obs::ReadMetric("explore.budgets_certified"),
            result.budgets_certified);
  const obs::SpanNode root = obs::SnapshotSpans();
  std::uint64_t solves = 0;
  for (const obs::SpanNode& top : root.children) {
    if (top.name != "explore") continue;
    for (const obs::SpanNode& child : top.children) {
      if (child.name == "explore.solve") solves = child.count;
    }
  }
  EXPECT_EQ(solves, result.budgets_scanned - result.budgets_certified);
}

TEST(ExploreDominance, DominatesRequiresStrictImprovementSomewhere) {
  const ExplorePoint base = MakePoint(100, 1.0, 5.0, 40);
  EXPECT_FALSE(Dominates(base, base));  // equal on all -> no dominance
  EXPECT_TRUE(Dominates(MakePoint(90, 1.0, 5.0, 40), base));
  EXPECT_TRUE(Dominates(MakePoint(90, 0.5, 4.0, 30), base));
  // Better on one axis, worse on another: incomparable both ways.
  const ExplorePoint trade = MakePoint(90, 1.0, 6.0, 40);
  EXPECT_FALSE(Dominates(trade, base));
  EXPECT_FALSE(Dominates(base, trade));
}

TEST(ExploreDominance, ParetoFrontierKeepsOnlyNonDominated) {
  const std::vector<ExplorePoint> points = {
      MakePoint(100, 1.0, 5.0, 40),  // dominated by 1
      MakePoint(90, 1.0, 5.0, 40),   // frontier
      MakePoint(200, 0.1, 9.0, 80),  // frontier (best leakage)
      MakePoint(90, 1.0, 5.0, 40),   // duplicate of 1: kept (no strict win)
  };
  const std::vector<std::size_t> frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ExploreVerify, AcceptsTheExplorersOwnFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  std::string error;
  EXPECT_TRUE(VerifyFrontier(result.points, result.frontier, &error)) << error;
}

TEST(ExploreVerify, RejectsTamperedResults) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.dominated, 0u);

  // A dominated point smuggled onto the frontier.
  std::size_t dominated_idx = result.points.size();
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (!result.points[i].on_frontier) {
      dominated_idx = i;
      break;
    }
  }
  ASSERT_LT(dominated_idx, result.points.size());
  std::vector<std::size_t> smuggled = result.frontier;
  smuggled.push_back(dominated_idx);
  std::string error;
  EXPECT_FALSE(VerifyFrontier(result.points, smuggled, &error));
  EXPECT_FALSE(error.empty());

  // An optimal point dropped from the frontier.
  std::vector<std::size_t> dropped(result.frontier.begin() + 1,
                                   result.frontier.end());
  error.clear();
  EXPECT_FALSE(VerifyFrontier(result.points, dropped, &error));
  EXPECT_FALSE(error.empty());

  // A flipped on_frontier flag with the index list left intact.
  std::vector<ExplorePoint> flipped = result.points;
  flipped[dominated_idx].on_frontier = true;
  error.clear();
  EXPECT_FALSE(VerifyFrontier(flipped, result.frontier, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ExploreVerify, HashChangesWhenAFrontierPointChanges) {
  ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  const std::uint64_t before = FrontierHash(result);
  result.points[result.frontier.front()].io_cost += 1;
  EXPECT_NE(FrontierHash(result), before);
}

TEST(ExploreOptionsContract, MalformedOptionsFailClosedWithoutAborting) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);

  ExploreOptions bad_step;
  bad_step.budget_step = 0;
  EXPECT_FALSE(Explore(built.graph(), bad_step).ok);

  ExploreOptions no_words;
  no_words.word_bits.clear();
  EXPECT_FALSE(Explore(built.graph(), no_words).ok);

  const Graph empty;
  EXPECT_FALSE(Explore(empty, {}).ok);
}

TEST(ExploreOptionsContract, FiredCancelTokenAbortsExploration) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);
  const CancelToken token;
  token.Cancel();
  ExploreOptions options;
  options.cancel = &token;
  const ExploreResult result = Explore(built.graph(), options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(ExploreOptionsContract, SchedulerNamesRoundTrip) {
  EXPECT_EQ(ExploreSchedulerFromString("bb"),
            ExploreScheduler::kBranchAndBound);
  EXPECT_EQ(ExploreSchedulerFromString("robust"),
            ExploreScheduler::kRobustChain);
  EXPECT_EQ(ExploreSchedulerFromString("nope"), std::nullopt);
  EXPECT_STREQ(ToString(ExploreScheduler::kBranchAndBound), "bb");
  EXPECT_STREQ(ToString(ExploreScheduler::kRobustChain), "robust");
}

TEST(ExploreOptionsContract, RobustChainAlsoProducesAFrontier) {
  const BuiltinGraph built = BuildBuiltinGraph("kary:2,3");
  ASSERT_TRUE(built.ok);
  ExploreOptions options;
  options.scheduler = ExploreScheduler::kRobustChain;
  const ExploreResult result = Explore(built.graph(), options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.frontier.empty());
  std::string error;
  EXPECT_TRUE(VerifyFrontier(result.points, result.frontier, &error)) << error;
}

TEST(ExploreReport, JsonCarriesSchemaAndFrontier) {
  const ExploreResult result = ExploreKary();
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json =
      ExploreToJson("kary:2,3", "bb", result).Dump(2);
  EXPECT_NE(json.find("\"schema\": \"wrbpg-explore-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"frontier_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"on_frontier\""), std::string::npos);
}

}  // namespace
}  // namespace wrbpg
