// Robustness-layer microbenchmarks (google-benchmark).
//
// Two questions matter for the robust layer to be usable inline in a
// compiler or runtime:
//   1. Repair throughput — patching a mutated schedule must cost about as
//      much as simulating it, not as much as rescheduling from scratch.
//   2. Fallback latency — when the exact stage is skipped or times out,
//      the chain's overhead on top of the winning heuristic must be small.
// `bench_robust --robust-report [--json <path>]` instead runs the fallback
// chain once per representative instance (DWT with the exact stage live, a
// random DAG with exact disabled, a deadline-cancelled run) and emits the
// per-stage provenance — winner, outcome, elapsed — as a wrbpg-obs-v1
// document with the chain's spans and counters attached.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <string_view>

#include "core/analysis.h"
#include "core/simulator.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "obs/report.h"
#include "robust/fault_injector.h"
#include "robust/repair.h"
#include "robust/robust_scheduler.h"
#include "schedulers/belady.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/layer_by_layer.h"
#include "util/cli.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

void BM_RepairMutatedDwt(benchmark::State& state) {
  const auto n = state.range(0);
  const DwtGraph dwt = BuildDwt(n, MaxDwtLevel(n));
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  DwtOptimalScheduler sched(dwt);
  const Schedule valid = sched.Run(budget).schedule;

  FaultInjector injector(dwt.graph, budget, valid);
  Rng rng(0xbe7c11u);
  const auto corpus = injector.Corpus(rng, 4);

  std::size_t i = 0;
  for (auto _ : state) {
    const FaultCase& fault = corpus[i++ % corpus.size()];
    benchmark::DoNotOptimize(
        RepairSchedule(dwt.graph, fault.budget, fault.schedule));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RepairMutatedDwt)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_RepairVsSimulateBaseline(benchmark::State& state) {
  // The floor: replaying the same schedule through the simulator alone.
  const DwtGraph dwt = BuildDwt(64, MaxDwtLevel(64));
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  DwtOptimalScheduler sched(dwt);
  const Schedule valid = sched.Run(budget).schedule;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Simulate(dwt.graph, budget, valid));
  }
}
BENCHMARK(BM_RepairVsSimulateBaseline);

void BM_RobustChainHeuristicOnly(benchmark::State& state) {
  // Chain overhead when exact is skipped: RobustScheduler vs bare belady.
  Rng rng(0xc4a1u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                         .nodes_per_layer = 6,
                                         .max_in_degree = 3});
  const Weight budget = MinValidBudget(dag) + 64;
  RobustOptions options;
  options.exact_max_nodes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RobustScheduler(dag).Run(budget, options));
  }
}
BENCHMARK(BM_RobustChainHeuristicOnly);

void BM_BeladyBaseline(benchmark::State& state) {
  Rng rng(0xc4a1u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                         .nodes_per_layer = 6,
                                         .max_in_degree = 3});
  const Weight budget = MinValidBudget(dag) + 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BeladyScheduler(dag).Run(budget));
  }
}
BENCHMARK(BM_BeladyBaseline);

// The two rules of the shared eviction loop on one 766-node graph.
void BM_BeladyDwt256(benchmark::State& state) {
  const DwtGraph dwt = BuildDwt(256, 8);
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  const BeladyScheduler belady(dwt.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(belady.Run(budget));
  }
}
BENCHMARK(BM_BeladyDwt256);

void BM_LayerByLayerDwt256(benchmark::State& state) {
  const DwtGraph dwt = BuildDwt(256, 8);
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  const LayerByLayerScheduler baseline(dwt.graph, dwt.layers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline.Run(budget));
  }
}
BENCHMARK(BM_LayerByLayerDwt256);

void BM_RobustChainWithDeadline(benchmark::State& state) {
  // End-to-end fallback latency with a deadline that cancels the exact
  // stage mid-flight (the acceptance scenario of the robust layer).
  Rng rng(0xdead11u);
  const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                         .nodes_per_layer = 4,
                                         .max_in_degree = 3});
  const Weight budget = MinValidBudget(dag) + 32;
  RobustOptions options;
  options.deadline_ms = static_cast<double>(state.range(0));
  options.exact_max_nodes = 26;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RobustScheduler(dag).Run(budget, options));
  }
}
BENCHMARK(BM_RobustChainWithDeadline)->Arg(5)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --robust-report: one chain run per representative instance, with the
// per-stage provenance exported through the shared observability sink.
// ---------------------------------------------------------------------------

void ReportChain(const std::string& name, const RobustResult& robust,
                 obs::Json& json_rows) {
  std::cout << name << ": winner="
            << (robust.result.feasible ? robust.winner : "none");
  if (robust.result.feasible) {
    // The chain's anytime contract: cost plus the tightest certified
    // lower bound any stage produced (DESIGN.md §11).
    std::cout << " cost=" << robust.result.cost
              << " lb=" << robust.result.lower_bound
              << " gap=" << robust.result.optimality_gap
              << " termination=" << ToString(robust.result.termination);
  }
  std::cout << "\n";
  obs::Json row = obs::Json::Object();
  row.Set("instance", name);
  row.Set("feasible", robust.result.feasible);
  row.Set("winner", robust.result.feasible ? robust.winner : "");
  if (robust.result.feasible) {
    row.Set("cost", robust.result.cost);
    row.Set("lower_bound", robust.result.lower_bound);
    row.Set("gap", robust.result.optimality_gap);
    row.Set("termination", ToString(robust.result.termination));
  }
  obs::Json stages = obs::Json::Array();
  for (const StageReport& stage : robust.stages) {
    std::cout << "  stage " << stage.name << ": " << ToString(stage.outcome)
              << " (" << stage.elapsed_ms << " ms)";
    if (!stage.detail.empty()) std::cout << " [" << stage.detail << "]";
    std::cout << "\n";
    obs::Json s = obs::Json::Object();
    s.Set("name", stage.name);
    s.Set("outcome", ToString(stage.outcome));
    s.Set("elapsed_ms", stage.elapsed_ms);
    if (stage.cost < kInfiniteCost) s.Set("cost", stage.cost);
    if (!stage.detail.empty()) s.Set("detail", stage.detail);
    stages.Push(std::move(s));
  }
  row.Set("stages", std::move(stages));
  json_rows.Push(std::move(row));
}

int RunRobustReport(const CliArgs& args) {
  const std::string json_path = args.GetString("json", "");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  obs::Json json_rows = obs::Json::Array();

  {
    // Small DWT: the exact stage runs and wins.
    const DwtGraph dwt = BuildDwt(8, 2);
    const Weight budget = MinValidBudget(dwt.graph) + 2;
    ReportChain("dwt(8,2)+exact",
                RobustScheduler(dwt).Run(budget, {}), json_rows);
  }
  {
    // Random DAG with the exact stage disabled: a heuristic must win.
    Rng rng(0xc4a1u);
    const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                           .nodes_per_layer = 6,
                                           .max_in_degree = 3});
    RobustOptions options;
    options.exact_max_nodes = 0;
    ReportChain("dag(6x6)-heuristic",
                RobustScheduler(dag).Run(MinValidBudget(dag) + 64, options),
                json_rows);
  }
  {
    // Tight deadline: the bb exact stage is interrupted mid-flight and
    // returns its anytime incumbent with a certified gap; the heuristics
    // run as backstops (the robustness layer's acceptance scenario).
    Rng rng(0xdead11u);
    const Graph dag = BuildRandomDag(rng, {.num_layers = 6,
                                           .nodes_per_layer = 4,
                                           .max_in_degree = 3});
    RobustOptions options;
    options.deadline_ms = 5;
    options.exact_max_nodes = 26;
    ReportChain("dag(6x4)-deadline-5ms",
                RobustScheduler(dag).Run(MinValidBudget(dag) + 32, options),
                json_rows);
  }

  if (!json_path.empty()) {
    obs::Json doc = obs::ObsDocument("robust-report");
    doc.Set("rows", std::move(json_rows));
    std::string error;
    if (!obs::WriteJsonFile(json_path, doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "[json] " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace wrbpg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--robust-report") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunRobustReport(args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
