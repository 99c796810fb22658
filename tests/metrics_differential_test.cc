// The observability determinism contract (DESIGN.md §10): metrics are
// write-only for every algorithm, so collection on vs. off must produce
// bit-identical schedules — across all three exact engines, at 1/2/8
// threads, and through the robust fallback chain. A divergence here means
// some scheduling decision read a counter, which the design forbids.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "dataflows/tree_graph.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "robust/robust_scheduler.h"
#include "schedulers/brute_force.h"

namespace wrbpg {
namespace {

constexpr SearchEngine kEngines[] = {SearchEngine::kDijkstra,
                                     SearchEngine::kAStar,
                                     SearchEngine::kBranchAndBound};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

class MetricsDifferentialTest : public ::testing::Test {
 protected:
  // Collection is process-global state; leave it enabled for other tests
  // no matter how a test here exits.
  void TearDown() override {
    obs::SetEnabled(true);
    obs::ResetAll();
  }
};

TEST_F(MetricsDifferentialTest, EnginesBitIdenticalWithMetricsOnAndOff) {
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight budget = MinValidBudget(tree.graph) + 2;
  const BruteForceScheduler scheduler(tree.graph);

  for (const SearchEngine engine : kEngines) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(ToString(engine)) + " threads=" +
                   std::to_string(threads));
      BruteForceOptions options;
      options.engine = engine;
      options.threads = threads;
      SearchStats stats_on;
      options.stats = &stats_on;

      obs::SetEnabled(true);
      obs::ResetAll();
      const ScheduleResult with_metrics = scheduler.Run(budget, options);
      // Collection really happened: the run's own totals reached the
      // registry (mirrored from the same stats the caller sees).
      EXPECT_EQ(obs::ReadMetric("search.runs"), 1u);
      EXPECT_EQ(obs::ReadMetric("search.expanded"), stats_on.expanded);
      EXPECT_EQ(obs::ReadMetric("search.waves"), stats_on.waves);

      SearchStats stats_off;
      options.stats = &stats_off;
      obs::SetEnabled(false);
      obs::ResetAll();
      const ScheduleResult without_metrics = scheduler.Run(budget, options);
      EXPECT_EQ(obs::ReadMetric("search.runs"), 0u);

      ASSERT_EQ(with_metrics.feasible, without_metrics.feasible);
      EXPECT_EQ(with_metrics.cost, without_metrics.cost);
      EXPECT_EQ(with_metrics.schedule, without_metrics.schedule);
      // SearchStats are part of the deterministic surface too (expanded
      // and waves are pure functions of the inputs).
      EXPECT_EQ(stats_on.expanded, stats_off.expanded);
      EXPECT_EQ(stats_on.waves, stats_off.waves);
      EXPECT_EQ(stats_on.max_frontier, stats_off.max_frontier);
    }
  }
}

TEST_F(MetricsDifferentialTest, RobustChainBitIdenticalWithMetricsOnAndOff) {
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight budget = MinValidBudget(tree.graph) + 2;
  const RobustScheduler scheduler(tree.graph);

  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RobustOptions options;
    options.threads = threads;

    obs::SetEnabled(true);
    obs::ResetAll();
    const RobustResult with_metrics = scheduler.Run(budget, options);
    EXPECT_EQ(obs::ReadMetric("robust.runs"), 1u);

    obs::SetEnabled(false);
    obs::ResetAll();
    const RobustResult without_metrics = scheduler.Run(budget, options);

    ASSERT_EQ(with_metrics.result.feasible, without_metrics.result.feasible);
    EXPECT_EQ(with_metrics.winner, without_metrics.winner);
    EXPECT_EQ(with_metrics.result.cost, without_metrics.result.cost);
    EXPECT_EQ(with_metrics.result.schedule, without_metrics.result.schedule);
    ASSERT_EQ(with_metrics.stages.size(), without_metrics.stages.size());
    for (std::size_t i = 0; i < with_metrics.stages.size(); ++i) {
      EXPECT_EQ(with_metrics.stages[i].outcome,
                without_metrics.stages[i].outcome);
    }
  }
}

// The winner-provenance counters use dynamic names; pin the name scheme.
TEST_F(MetricsDifferentialTest, RobustWinnerCounterUsesStageName) {
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight budget = MinValidBudget(tree.graph) + 2;
  obs::ResetAll();
  const RobustResult result = RobustScheduler(tree.graph).Run(budget, {});
  ASSERT_TRUE(result.result.feasible);
  EXPECT_EQ(obs::ReadMetric("robust.winner." + result.winner), 1u);
}

}  // namespace
}  // namespace wrbpg
