// Differential tests for the DESIGN.md §9 engine-independence contract:
// dijkstra, astar, and bb return BIT-IDENTICAL results — same
// feasibility, same cost, same canonical move sequence — at every thread
// count AND through either state representation (the packed 64-bit fast
// path or the wide interned one, force_wide_state). The informed engines
// prune and reorder the search, but they reconstruct from a distance map
// whose optimal-path entries provably coincide with the uninformed one.
// bb is astar with its pruning bound started at the incumbent cost, so a
// completed bb run also settles exactly astar's states, wave for wave.
//
// Coverage mirrors parallel_determinism_test.cc: four graph families at
// several budgets (each engine at 1/2/8 threads against the dijkstra
// sequential reference) plus 200+ search problems derived from
// FaultInjector corpora, whose mutated budgets and mid-schedule memory
// states land on infeasible, trivial, and adversarial instances alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "robust/fault_injector.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

using testing::ExpectValid;
using testing::MakeChain;
using testing::MakeDiamond;

constexpr SearchEngine kAllEngines[] = {SearchEngine::kDijkstra,
                                        SearchEngine::kAStar,
                                        SearchEngine::kBranchAndBound};

void ExpectIdentical(const ScheduleResult& ref, const ScheduleResult& got,
                     const std::string& label) {
  EXPECT_EQ(ref.feasible, got.feasible) << label;
  EXPECT_EQ(ref.timed_out, got.timed_out) << label;
  EXPECT_EQ(ref.cost, got.cost) << label;
  EXPECT_TRUE(ref.schedule == got.schedule)
      << label << ": schedules differ\nref:\n"
      << ref.schedule.ToString() << "got:\n"
      << got.schedule.ToString();
}

// A completed bb run settles exactly astar's states: same expanded count
// and the same number of waves.
void ExpectSameSearch(const SearchStats& astar, const SearchStats& bb,
                      const std::string& label) {
  EXPECT_EQ(bb.expanded, astar.expanded) << label << ": bb vs astar";
  EXPECT_EQ(bb.waves, astar.waves) << label << ": bb vs astar";
}

// Reference = dijkstra sequential; every other (engine, threads) pair
// must reproduce it bit for bit. None of these runs carries a deadline or
// a cap, so every bb run completes and is held to astar's search stats.
void ExpectEnginesAgree(const Graph& graph, Weight budget,
                        const BruteForceOptions& base,
                        const std::string& label) {
  const BruteForceScheduler scheduler(graph);
  std::map<std::pair<bool, std::size_t>, SearchStats> astar_stats;
  BruteForceOptions options = base;
  options.engine = SearchEngine::kDijkstra;
  options.threads = 1;
  const ScheduleResult ref = scheduler.Run(budget, options);
  // A completed exact run certifies its own optimality: the anytime
  // contract fields must close the gap no matter which engine ran.
  if (ref.feasible) {
    EXPECT_EQ(ref.lower_bound, ref.cost) << label;
    EXPECT_EQ(ref.optimality_gap, 0) << label;
    EXPECT_EQ(ref.termination, Termination::kOptimal) << label;
  }
  for (const SearchEngine engine : kAllEngines) {
    for (const bool force_wide : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        if (engine == SearchEngine::kDijkstra && threads == 1 &&
            !force_wide) {
          continue;
        }
        options.engine = engine;
        options.threads = threads;
        options.force_wide_state = force_wide;
        SearchStats stats;
        options.stats = &stats;
        const ScheduleResult got = scheduler.Run(budget, options);
        const std::string run_label = label + " engine=" + ToString(engine) +
                                      " threads=" + std::to_string(threads) +
                                      (force_wide ? " wide" : " packed");
        ExpectIdentical(ref, got, run_label);
        if (got.feasible) {
          EXPECT_EQ(got.lower_bound, ref.cost) << label;
          EXPECT_EQ(got.termination, Termination::kOptimal) << label;
        }
        if (engine == SearchEngine::kAStar) {
          astar_stats[{force_wide, threads}] = stats;
        } else if (engine == SearchEngine::kBranchAndBound) {
          ExpectSameSearch(astar_stats.at({force_wide, threads}), stats,
                           run_label);
        }
      }
    }
    // CostOnly must agree with the full run's cost as well.
    options.engine = engine;
    options.threads = 1;
    options.force_wide_state = false;
    options.stats = nullptr;
    const Weight cost = scheduler.CostOnly(budget, options);
    if (ref.feasible) {
      EXPECT_EQ(cost, ref.cost) << label << " engine=" << ToString(engine);
    } else {
      EXPECT_GE(cost, kInfiniteCost)
          << label << " engine=" << ToString(engine);
    }
  }
  if (ref.feasible) {
    SimOptions sim_options;
    sim_options.require_stop_condition = base.require_sinks_blue;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if (base.initial_red & bit) sim_options.initial_red.push_back(v);
      if (base.initial_blue && (*base.initial_blue & bit)) {
        sim_options.initial_blue.push_back(v);
      }
      if (base.required_red_at_end & bit) {
        sim_options.required_red_at_end.push_back(v);
      }
    }
    const SimResult sim =
        ExpectValid(graph, budget, ref.schedule, sim_options);
    EXPECT_EQ(sim.cost, ref.cost) << label;
  }
}

void ExpectEnginesAgree(const Graph& graph, Weight budget,
                        const std::string& label) {
  ExpectEnginesAgree(graph, budget, BruteForceOptions{}, label);
}

TEST(EngineDifferential, DwtFamily) {
  const DwtGraph dwt = BuildDwt(4, 2);
  const Weight lo = MinValidBudget(dwt.graph);
  for (const Weight budget : {lo, lo + 1, lo + 3, 2 * lo}) {
    ExpectEnginesAgree(dwt.graph, budget,
                       "dwt(4,2) budget=" + std::to_string(budget));
  }
}

TEST(EngineDifferential, KaryTreeFamily) {
  const TreeGraph tree = BuildPerfectTree(2, 2);
  const Weight lo = MinValidBudget(tree.graph);
  for (const Weight budget : {lo, lo + 2, 2 * lo}) {
    ExpectEnginesAgree(tree.graph, budget,
                       "kary(2,2) budget=" + std::to_string(budget));
  }
}

TEST(EngineDifferential, ButterflyFamily) {
  const ButterflyGraph fly = BuildButterfly(4);
  const Weight lo = MinValidBudget(fly.graph);
  for (const Weight budget : {lo, lo + 1}) {
    ExpectEnginesAgree(fly.graph, budget,
                       "butterfly(4) budget=" + std::to_string(budget));
  }
}

TEST(EngineDifferential, RandomDagFamily) {
  Rng rng(2026);
  RandomDagOptions options;
  options.num_layers = 3;
  options.nodes_per_layer = 3;
  options.max_in_degree = 2;
  for (int instance = 0; instance < 3; ++instance) {
    const Graph graph = BuildRandomDag(rng, options);
    const Weight lo = MinValidBudget(graph);
    for (const Weight budget : {lo, lo + 4}) {
      ExpectEnginesAgree(graph, budget,
                         "random-dag#" + std::to_string(instance) +
                             " budget=" + std::to_string(budget));
    }
  }
}

TEST(EngineDifferential, InfeasibleBudgetAgrees) {
  const Graph graph = MakeDiamond();
  ExpectEnginesAgree(graph, MinValidBudget(graph) - 1,
                     "diamond infeasible");
}

// Pebble-mask bits past the graph follow Simulate's rule in both state
// representations: stray initial bits are ignored, and a stray
// required-red bit can never be met, so the game is infeasible.
TEST(EngineDifferential, OutOfRangeMaskBitsAgree) {
  const Graph graph = MakeChain(5);
  const Weight budget = 3;
  const std::uint64_t stray = std::uint64_t{1} << 20;
  const BruteForceScheduler scheduler(graph);
  const ScheduleResult plain = scheduler.Run(budget);
  ASSERT_TRUE(plain.feasible);

  BruteForceOptions red;
  red.initial_red = stray;
  ExpectEnginesAgree(graph, budget, red, "chain5 initial_red bit 20");
  EXPECT_EQ(scheduler.Run(budget, red).cost, plain.cost);

  BruteForceOptions blue;
  blue.initial_blue = stray | 1;  // the source plus a stray bit
  ExpectEnginesAgree(graph, budget, blue, "chain5 initial_blue bit 20");
  EXPECT_EQ(scheduler.Run(budget, blue).cost, plain.cost);

  BruteForceOptions required;
  required.required_red_at_end = stray;
  ExpectEnginesAgree(graph, budget, required,
                     "chain5 required_red_at_end bit 20");
  EXPECT_FALSE(scheduler.Run(budget, required).feasible);
}

// Memory-state games (initial pebbles, required final red set) exercise
// the heuristic's required_red term and non-source initial blue sets.
TEST(EngineDifferential, MemoryStateGamesAgree) {
  const Graph graph = MakeDiamond({2, 3, 1, 2, 4});
  const Weight budget = MinValidBudget(graph) + 2;
  BruteForceOptions options;
  options.initial_red = 0b00010;  // node 1 resident
  options.required_red_at_end = 0b00100;
  ExpectEnginesAgree(graph, budget, options, "diamond memory-state");
}

// Replays the first `len` moves of a schedule known to be valid, returning
// the resulting (red, blue) masks for use as a brute-force initial state.
struct PebbleMasks {
  std::uint64_t red = 0;
  std::uint64_t blue = 0;
};

PebbleMasks ReplayPrefix(const Graph& graph, const Schedule& schedule,
                         std::size_t len) {
  PebbleMasks masks;
  for (const NodeId v : graph.sources()) masks.blue |= std::uint64_t{1} << v;
  for (std::size_t i = 0; i < len && i < schedule.size(); ++i) {
    const Move& move = schedule[i];
    const std::uint64_t bit = std::uint64_t{1} << move.node;
    switch (move.type) {
      case MoveType::kLoad:
      case MoveType::kCompute:
        masks.red |= bit;
        break;
      case MoveType::kStore:
        masks.blue |= bit;
        break;
      case MoveType::kDelete:
        masks.red &= ~bit;
        break;
    }
  }
  return masks;
}

// 200+ differential cases: every FaultInjector mutant of a few base
// schedules becomes a fresh search problem — the mutant's (possibly
// tightened) budget plus the memory state reached just before the fault
// site. All three engines must agree on all of them, sequential and
// parallel alike.
TEST(EngineDifferential, FaultInjectorDerivedCases) {
  struct Base {
    std::string name;
    Graph graph;
    Weight budget = 0;
  };
  std::vector<Base> bases;
  bases.push_back({"diamond", MakeDiamond({2, 3, 1, 2, 4}), 0});
  bases.push_back({"chain6", MakeChain(6, 2), 0});
  bases.push_back({"dwt(4,1)", BuildDwt(4, 1).graph, 0});
  bases.push_back({"kary(2,2)", BuildPerfectTree(2, 2).graph, 0});

  Rng rng(7);
  int cases_run = 0;
  for (Base& base : bases) {
    base.budget = MinValidBudget(base.graph) + 2;
    const ScheduleResult seed = BeladyScheduler(base.graph).Run(base.budget);
    ASSERT_TRUE(seed.feasible) << base.name;
    ExpectValid(base.graph, base.budget, seed.schedule);

    const FaultInjector injector(base.graph, base.budget, seed.schedule);
    const std::vector<FaultCase> corpus = injector.Corpus(rng, 12);
    const BruteForceScheduler scheduler(base.graph);
    for (const FaultCase& fault : corpus) {
      const PebbleMasks masks =
          ReplayPrefix(base.graph, seed.schedule, fault.position);
      BruteForceOptions options;
      options.initial_red = masks.red;
      options.initial_blue = masks.blue;
      options.engine = SearchEngine::kDijkstra;
      options.threads = 1;
      const ScheduleResult ref = scheduler.Run(fault.budget, options);
      for (const std::size_t threads : {1u, 8u}) {
        SearchStats astar_stats;
        for (const SearchEngine engine :
             {SearchEngine::kAStar, SearchEngine::kBranchAndBound}) {
          options.engine = engine;
          options.threads = threads;
          SearchStats stats;
          options.stats = &stats;
          const ScheduleResult got = scheduler.Run(fault.budget, options);
          const std::string run_label =
              base.name + " " + fault.label + " engine=" + ToString(engine) +
              " threads=" + std::to_string(threads);
          ExpectIdentical(ref, got, run_label);
          if (engine == SearchEngine::kAStar) {
            astar_stats = stats;
          } else {
            ExpectSameSearch(astar_stats, stats, run_label);
          }
        }
        options.stats = nullptr;
      }
      ++cases_run;
    }
  }
  EXPECT_GE(cases_run, 200) << "fault corpus shrank; widen per_kind";
}

}  // namespace
}  // namespace wrbpg
