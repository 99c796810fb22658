// Differential pin of the orbit root-move pruning and the certified root
// bound (BruteForceOptions::prune_root_loads / root_lower_bound): across
// engines, thread counts, and both state representations, results with
// the options ON are bit-identical to the plain search — same cost, same
// canonical schedule — because the canonical optimum's first move loads
// its orbit's minimum source, which is never pruned, and the root bound
// feeds only the REPORTED lower bound of interrupted exits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/bounds.h"
#include "ganalysis/canonical.h"
#include "schedulers/brute_force.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

struct Case {
  std::string name;
  Graph graph;
  Weight budget = 0;
};

std::vector<Case> Corpus() {
  std::vector<Case> corpus;
  {
    Graph g = BuildPerfectTree(2, 3).graph;  // 15 nodes, 8-way leaf orbit
    const Weight budget = MinValidBudget(g) + 2;
    corpus.push_back({"kary(2,3)", std::move(g), budget});
  }
  {
    Graph g = BuildDwt(8, 1).graph;  // symmetric input pairs
    const Weight budget = MinValidBudget(g) + 2;
    corpus.push_back({"dwt(8,1)", std::move(g), budget});
  }
  {
    Graph g = BuildButterfly(4).graph;  // non-tree, orbit-rich
    const Weight budget = MinValidBudget(g) + 2;
    corpus.push_back({"butterfly(4)", std::move(g), budget});
  }
  {
    Graph g = testing::MakeDiamond({3, 5, 7, 11, 13});  // rigid: no prune
    const Weight budget = MinValidBudget(g) + 4;
    corpus.push_back({"diamond", std::move(g), budget});
  }
  return corpus;
}

// Sources whose verified orbit has a smaller-id source; their root loads
// are the ones the searcher may soundly skip.
std::vector<NodeId> PrunableSources(const Graph& graph) {
  const OrbitPartition orbits = ComputeOrbits(graph);
  std::vector<NodeId> pruned;
  for (const NodeId s : graph.sources()) {
    if (orbits.orbit_of[s] != s) pruned.push_back(s);
  }
  return pruned;
}

TEST(OrbitPruneDifferential, BitIdenticalAcrossEnginesThreadsAndStates) {
  const std::vector<SearchEngine> engines = {
      SearchEngine::kDijkstra, SearchEngine::kAStar,
      SearchEngine::kBranchAndBound};
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  for (const Case& c : Corpus()) {
    const BruteForceScheduler scheduler(c.graph);
    const std::vector<NodeId> pruned = PrunableSources(c.graph);
    const Weight cert_lb = BestCertifiedBound(c.graph, c.budget);

    // The reference: sequential dijkstra, no pruning, packed state.
    BruteForceOptions plain;
    plain.engine = SearchEngine::kDijkstra;
    plain.threads = 1;
    const ScheduleResult reference = scheduler.Run(c.budget, plain);
    ASSERT_TRUE(reference.feasible) << c.name;
    testing::ExpectValid(c.graph, c.budget, reference.schedule);

    for (const SearchEngine engine : engines) {
      for (const std::size_t threads : thread_counts) {
        for (const bool wide : {false, true}) {
          BruteForceOptions options;
          options.engine = engine;
          options.threads = threads;
          options.force_wide_state = wide;
          options.prune_root_loads = &pruned;
          options.root_lower_bound = cert_lb;
          const ScheduleResult result = scheduler.Run(c.budget, options);
          const std::string label =
              c.name + " engine=" + ToString(engine) + " threads=" +
              std::to_string(threads) + (wide ? " wide" : " packed");
          ASSERT_TRUE(result.feasible) << label;
          EXPECT_EQ(result.cost, reference.cost) << label;
          EXPECT_EQ(result.schedule, reference.schedule) << label;
          EXPECT_EQ(result.termination, Termination::kOptimal) << label;
        }
      }
    }
  }
}

// Pruning must actually bite on the symmetric instances: fewer states
// generated than the unpruned search at the same settings.
TEST(OrbitPruneDifferential, PruningReducesGeneratedStates) {
  const Graph g = BuildPerfectTree(2, 3).graph;
  const Weight budget = MinValidBudget(g) + 2;
  const std::vector<NodeId> pruned = PrunableSources(g);
  ASSERT_FALSE(pruned.empty());  // 8 leaves collapse onto one representative

  const BruteForceScheduler scheduler(g);
  SearchStats with_stats, without_stats;
  BruteForceOptions with;
  with.threads = 1;
  with.prune_root_loads = &pruned;
  with.stats = &with_stats;
  BruteForceOptions without;
  without.threads = 1;
  without.stats = &without_stats;
  const ScheduleResult a = scheduler.Run(budget, with);
  const ScheduleResult b = scheduler.Run(budget, without);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_LT(with_stats.generated, without_stats.generated);
}

// Non-standard games (custom initial pebbles) ignore both options: the
// caller's certificate only covers the standard start state.
TEST(OrbitPruneDifferential, NonStandardGamesIgnoreTheOptions) {
  const Graph g = BuildPerfectTree(2, 3).graph;
  const Weight budget = MinValidBudget(g) + 2;
  const std::vector<NodeId> pruned = PrunableSources(g);

  BruteForceOptions custom;
  custom.initial_red = 1;  // node 0 starts red: not the standard game
  custom.prune_root_loads = &pruned;
  custom.root_lower_bound = kInfiniteCost / 2;  // absurd; must be ignored
  BruteForceOptions plain;
  plain.initial_red = 1;
  const BruteForceScheduler scheduler(g);
  const ScheduleResult a = scheduler.Run(budget, custom);
  const ScheduleResult b = scheduler.Run(budget, plain);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
}

}  // namespace
}  // namespace wrbpg
