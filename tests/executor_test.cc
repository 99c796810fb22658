#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/analysis.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/mvm_graph.h"
#include "exec/executor.h"
#include "exec/reference_kernels.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/layer_by_layer.h"
#include "schedulers/mvm_tiling.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

std::vector<double> RandomSignal(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> signal(static_cast<std::size_t>(n));
  for (auto& s : signal) {
    s = rng.UniformDouble() * 2.0 - 1.0;
  }
  return signal;
}

std::vector<double> SourceValuesForDwt(const DwtGraph& dwt,
                                       const std::vector<double>& signal) {
  std::vector<double> values(dwt.graph.num_nodes(), 0.0);
  for (std::size_t j = 0; j < dwt.layers[0].size(); ++j) {
    values[dwt.layers[0][j]] = signal[j];
  }
  return values;
}

// ---------------------------------------------------------------------------
// DWT: every scheduler's schedule computes the exact Haar transform.
// ---------------------------------------------------------------------------

class DwtExecutionTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(DwtExecutionTest, OptimalScheduleComputesHaarExactly) {
  const auto [n, d] = GetParam();
  const DwtGraph dwt = BuildDwt(n, d);
  DwtOptimalScheduler optimal(dwt);
  const Weight budget = MinValidBudget(dwt.graph) + 32;
  const auto run = optimal.Run(budget);
  ASSERT_TRUE(run.feasible);

  const std::vector<double> signal = RandomSignal(n, 42);
  const ExecResult exec =
      ExecuteSchedule(dwt.graph, budget, run.schedule, MakeDwtNodeOp(dwt),
                      SourceValuesForDwt(dwt, signal));
  ASSERT_TRUE(exec.ok) << exec.error;

  const std::vector<double> expected = DwtReferenceValues(dwt, signal);
  for (NodeId s : dwt.graph.sinks()) {
    ASSERT_TRUE(exec.present[s]);
    EXPECT_DOUBLE_EQ(exec.slow_values[s], expected[s]) << "sink v" << s;
  }
  EXPECT_LE(exec.peak_fast_bits, budget);
  EXPECT_EQ(exec.bits_loaded + exec.bits_stored, run.cost);
}

TEST_P(DwtExecutionTest, BaselinesComputeTheSameOutputs) {
  const auto [n, d] = GetParam();
  const DwtGraph dwt = BuildDwt(n, d);
  const std::vector<double> signal = RandomSignal(n, 7);
  const std::vector<double> expected = DwtReferenceValues(dwt, signal);
  const Weight budget = MinValidBudget(dwt.graph) + 64;

  LayerByLayerScheduler baseline(dwt.graph, dwt.layers);
  GreedyTopoScheduler greedy(dwt.graph);
  for (const Schedule& schedule :
       {baseline.Run(budget).schedule, greedy.Run(budget).schedule}) {
    ASSERT_FALSE(schedule.empty());
    const ExecResult exec =
        ExecuteSchedule(dwt.graph, budget, schedule, MakeDwtNodeOp(dwt),
                        SourceValuesForDwt(dwt, signal));
    ASSERT_TRUE(exec.ok) << exec.error;
    for (NodeId s : dwt.graph.sinks()) {
      EXPECT_DOUBLE_EQ(exec.slow_values[s], expected[s]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DwtExecutionTest,
                         ::testing::Values(std::tuple{4, 2}, std::tuple{8, 3},
                                           std::tuple{16, 4},
                                           std::tuple{24, 3},
                                           std::tuple{64, 6}));

TEST(DwtExecution, HaarOutputsPreserveEnergy) {
  // Parseval: the Haar transform is orthonormal, so output energy equals
  // input energy — a strong end-to-end sanity check of the kernel itself.
  const DwtGraph dwt = BuildDwt(32, 5);
  const std::vector<double> signal = RandomSignal(32, 3);
  const std::vector<double> outputs = HaarOutputs(dwt, signal);
  double in_energy = 0.0, out_energy = 0.0;
  for (double s : signal) in_energy += s * s;
  for (double o : outputs) out_energy += o * o;
  EXPECT_NEAR(in_energy, out_energy, 1e-9);
}

// ---------------------------------------------------------------------------
// MVM: tiling schedules compute y = A x exactly.
// ---------------------------------------------------------------------------

class MvmExecutionTest
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, bool>> {};

TEST_P(MvmExecutionTest, TilingScheduleComputesMatVecExactly) {
  const auto [m, n, double_acc] = GetParam();
  const PrecisionConfig config = double_acc
                                     ? PrecisionConfig::DoubleAccumulator()
                                     : PrecisionConfig::Equal();
  const MvmGraph mvm = BuildMvm(m, n, config);
  MvmTilingScheduler sched(mvm);

  Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(m * n));
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : a) v = rng.UniformDouble() * 2.0 - 1.0;
  for (auto& v : x) v = rng.UniformDouble() * 2.0 - 1.0;

  std::vector<double> sources(mvm.graph.num_nodes(), 0.0);
  for (std::int64_t c = 0; c < n; ++c) {
    sources[mvm.x(c)] = x[static_cast<std::size_t>(c)];
    for (std::int64_t r = 0; r < m; ++r) {
      sources[mvm.a(r, c)] = a[static_cast<std::size_t>(r * n + c)];
    }
  }
  const std::vector<double> y = MatVec(m, n, a, x);

  // Exercise several budgets: tight (spilling), mid, and LB-achieving.
  const Weight lo = MinValidBudget(mvm.graph);
  for (Weight budget : {lo, (lo + sched.MinMemoryForLowerBound()) / 2,
                        sched.MinMemoryForLowerBound()}) {
    const auto run = sched.Run(budget);
    ASSERT_TRUE(run.feasible) << "budget " << budget;
    const ExecResult exec = ExecuteSchedule(mvm.graph, budget, run.schedule,
                                            MakeMvmNodeOp(mvm), sources);
    ASSERT_TRUE(exec.ok) << exec.error;
    for (std::int64_t r = 0; r < m; ++r) {
      EXPECT_DOUBLE_EQ(exec.slow_values[mvm.output(r)],
                       y[static_cast<std::size_t>(r)])
          << "row " << r << " budget " << budget;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MvmExecutionTest,
    ::testing::Values(std::tuple{2, 2, false}, std::tuple{5, 4, false},
                      std::tuple{5, 4, true}, std::tuple{12, 9, true},
                      std::tuple{16, 20, false}, std::tuple{4, 1, false}));

// ---------------------------------------------------------------------------
// Error paths.
// ---------------------------------------------------------------------------

TEST(Executor, RejectsLoadOfAbsentValue) {
  const Graph g = testing::MakeChain(3, 2);
  Schedule s;
  s.Append(Load(1));  // node 1 never stored
  const auto op = [](NodeId, std::span<const double>) { return 0.0; };
  const ExecResult exec = ExecuteSchedule(g, 100, s, op, {1.0, 0.0, 0.0});
  EXPECT_FALSE(exec.ok);
  EXPECT_NE(exec.error.find("no blue pebble to copy from"), std::string::npos);
}

TEST(Executor, RejectsComputeWithMissingOperand) {
  const Graph g = testing::MakeChain(3, 2);
  Schedule s;
  s.Append(Compute(1));
  const auto op = [](NodeId, std::span<const double>) { return 0.0; };
  const ExecResult exec = ExecuteSchedule(g, 100, s, op, {1.0, 0.0, 0.0});
  EXPECT_FALSE(exec.ok);
  EXPECT_NE(exec.error.find("parent v0 holds no red pebble"),
            std::string::npos);
}

TEST(Executor, RejectsCapacityOverflow) {
  const Graph g = testing::MakeChain(3, 2);
  Schedule s;
  s.Append(Load(0));
  s.Append(Compute(1));  // 4 bits > 3-bit capacity
  const auto op = [](NodeId, std::span<const double>) { return 0.0; };
  const ExecResult exec = ExecuteSchedule(g, 3, s, op, {1.0, 0.0, 0.0});
  EXPECT_FALSE(exec.ok);
  EXPECT_NE(exec.error.find("constraint violated"), std::string::npos);
}

TEST(Executor, RejectsMissingOutput) {
  const Graph g = testing::MakeChain(2, 2);
  Schedule s;
  s.Append(Load(0));
  s.Append(Compute(1));
  const auto op = [](NodeId, std::span<const double>) { return 1.0; };
  const ExecResult exec = ExecuteSchedule(g, 100, s, op, {1.0, 0.0});
  EXPECT_FALSE(exec.ok);
  EXPECT_NE(exec.error.find("sink v1 holds no blue pebble"),
            std::string::npos);
}

// The source values are indexed by NodeId, so fewer than num_nodes() of
// them is a caller error reported as a failure, never read past the end.
TEST(Executor, RejectsTooFewSourceValues) {
  const DwtGraph dwt = BuildDwt(16, 2);  // sources v0..v15
  const Weight budget = MinValidBudget(dwt.graph) + 32;
  const auto run = DwtOptimalScheduler(dwt).Run(budget);
  ASSERT_TRUE(run.feasible);
  const ExecResult exec = ExecuteSchedule(
      dwt.graph, budget, run.schedule, MakeDwtNodeOp(dwt), {1.0, 2.0});
  EXPECT_FALSE(exec.ok);
  EXPECT_NE(exec.error.find("2 values for " +
                            std::to_string(dwt.graph.num_nodes()) + " nodes"),
            std::string::npos)
      << exec.error;
}

TEST(Executor, TracksTrafficSeparately) {
  const Graph g = testing::MakeChain(2, 8);
  Schedule s;
  s.Append(Load(0));
  s.Append(Compute(1));
  s.Append(Store(1));
  const auto op = [](NodeId, std::span<const double>) { return 2.5; };
  const ExecResult exec = ExecuteSchedule(g, 100, s, op, {1.0, 0.0});
  ASSERT_TRUE(exec.ok) << exec.error;
  EXPECT_EQ(exec.bits_loaded, 8);
  EXPECT_EQ(exec.bits_stored, 8);
  EXPECT_EQ(exec.peak_fast_bits, 16);
  EXPECT_DOUBLE_EQ(exec.slow_values[1], 2.5);
}

}  // namespace
}  // namespace wrbpg
