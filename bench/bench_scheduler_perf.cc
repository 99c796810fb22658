// Scheduler runtime microbenchmarks (google-benchmark), plus the
// `--threads-sweep` mode for the DESIGN.md §8 parallel search engine.
//
// Default mode supports the polynomial-time claims of Theorems 3.5 and
// 3.8: DP cost evaluation and schedule generation scale polynomially in
// |V| (DWT) and stay tractable in k (k-ary trees), and the WRBPG
// simulator replays hundreds of thousands of moves per millisecond.
//
// `bench_scheduler_perf --threads-sweep [--csv <dir>]` instead runs the
// exact brute-force search and the analysis budget sweep at 1/2/4/8
// threads on DWT and k-ary instances, printing wall time, speedup over
// the sequential run, cost, and whether the schedule is bit-identical to
// `--threads 1` (the determinism contract says it always is).
// `--dwt-n/--dwt-d/--budget-slack` resize the DWT instance; the default
// is chosen so the sequential solve takes on the order of a second.
//
// `bench_scheduler_perf --engine-compare [--quick] [--json <path>]` races
// the three exact engines (dijkstra / astar / bb, DESIGN.md §9/§11) over
// DWT and k-ary tree instances at several thread counts. It reports
// expanded states, waves, and wall time per engine, checks every schedule
// bit-for-bit against the dijkstra sequential baseline (exit 1 on any
// divergence), prints the expanded-state reduction of the informed
// engines, and writes the table as JSON (default BENCH_exact.json).
// `--quick` shrinks the instances for CI smoke runs.
//
// `bench_scheduler_perf --anytime-sweep [--quick] [--json <path>]` runs
// the bb anytime engine (DESIGN.md §11) under a grid of deadlines on a
// 64-node random DAG — past the exact engines' practical reach — and a
// DWT instance. The search root is primed with the best ganalysis bound
// certificate (ganalysis/bounds.h), so interrupted rows report the
// certificate-tightened lower bound (the cert_lb column); schedules are
// bit-identical with or without it. Every returned schedule is replayed
// through the simulator, and every row must satisfy the anytime contract
// (lower_bound <= cost, gap == cost - lower_bound, gap finite). The
// table is written as JSON (default BENCH_anytime.json); exit 1 if any
// schedule is invalid or any gap unsound.
//
// `bench_scheduler_perf --bound-compare [--json <path>]` tables the three
// start-state lower bounds (Prop 2.4 algorithmic / wavefront / segment,
// DESIGN.md §12) across the builtin families at a band of budgets,
// re-verifies every certificate witness, and cross-checks against the
// closed-form DP optimum where one exists (certificates must never
// exceed it). The paper-budget acceptance rows — dwt(16,2) and kary(2,4)
// at their minimum valid budgets — must show the budget-aware bounds
// STRICTLY dominating the algorithmic bound. JSON to BENCH_bounds.json;
// exit 1 on any verification failure, unsound bound, or lost dominance.
//
// `bench_scheduler_perf --canonical-scaling [--json <path>]` times the
// canonical layer (DESIGN.md §12.2) — HashGraph, FindIsomorphism against
// the unpermuted reference, and RecognizeFamily — on randomly relabeled
// bare kary(2,k) and dwt(2^k,k) graphs for k = 8..14 (kary(2,14) has
// 2^15-1 nodes, dwt(2^14,14) 49,150). Each time is the fastest of five
// in-process rounds; each row also records whether the relabeled graph was
// matched to its reference, kept its hash, and was recognized. The same
// rounds time Simulate() on each bare graph, replaying a Belady schedule at
// MinValidBudget + 16 that is built before timing starts, and record
// whether the simulator accepted it; ParseGraphBinary() on each bare
// graph's wrbpg-bin-v1 bytes, recording whether the decoded graph equals
// it; and one bb Run on each bare graph at that budget with an
// already-cancelled token (bb_setup_ms: incumbent seeding, building the
// searcher, the start state's h and teardown — the part of a bb call no
// deadline can cut short). JSON to BENCH_canonical.json;
// tools/bench_diff.py is the gate (those flags, and each family's growth
// per doubling of the node count, for the canonical layer, Simulate(),
// the decoder and the bb setup separately).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis.h"
#include "core/binio.h"
#include "core/simulator.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/mvm_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/bounds.h"
#include "ganalysis/canonical.h"
#include "ganalysis/recognition.h"
#include "obs/report.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/kary_tree.h"
#include "schedulers/layer_by_layer.h"
#include "schedulers/mvm_tiling.h"
#include "tests/permute_graph.h"
#include "util/cancel.h"
#include "util/cli.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

void BM_DwtOptimalCost(benchmark::State& state) {
  const auto n = state.range(0);
  const DwtGraph dwt =
      BuildDwt(n, MaxDwtLevel(n), PrecisionConfig::DoubleAccumulator());
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  for (auto _ : state) {
    DwtOptimalScheduler optimal(dwt);  // fresh memo each iteration
    benchmark::DoNotOptimize(optimal.CostOnly(budget));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DwtOptimalCost)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_DwtOptimalSchedule(benchmark::State& state) {
  const auto n = state.range(0);
  const DwtGraph dwt = BuildDwt(n, MaxDwtLevel(n));
  const Weight budget = MinValidBudget(dwt.graph) + 64;
  for (auto _ : state) {
    DwtOptimalScheduler optimal(dwt);
    benchmark::DoNotOptimize(optimal.Run(budget).schedule.size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DwtOptimalSchedule)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

void BM_KaryTreeCostByArity(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  // Keep node counts comparable: pick levels so |V| stays in the hundreds.
  const int levels = k == 2 ? 7 : (k == 3 ? 5 : 4);
  const TreeGraph t = BuildPerfectTree(k, levels);
  const Weight budget = MinValidBudget(t.graph) + 64;
  for (auto _ : state) {
    KaryTreeScheduler sched(t.graph);
    benchmark::DoNotOptimize(sched.CostOnly(budget));
  }
}
BENCHMARK(BM_KaryTreeCostByArity)->DenseRange(2, 4);

void BM_MvmTilingSearch(benchmark::State& state) {
  const auto n = state.range(0);
  const MvmGraph mvm =
      BuildMvm(96, n, PrecisionConfig::DoubleAccumulator());
  MvmTilingScheduler tiling(mvm);
  const Weight budget = 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiling.CostOnly(budget));
  }
}
BENCHMARK(BM_MvmTilingSearch)->RangeMultiplier(2)->Range(15, 120);

void BM_MvmTilingScheduleGeneration(benchmark::State& state) {
  const MvmGraph mvm = BuildMvm(96, 120, PrecisionConfig::Equal());
  MvmTilingScheduler tiling(mvm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tiling.Run(1584).schedule.size());
  }
}
BENCHMARK(BM_MvmTilingScheduleGeneration);

void BM_LayerByLayerRun(benchmark::State& state) {
  const DwtGraph dwt = BuildDwt(256, 8);
  LayerByLayerScheduler baseline(dwt.graph, dwt.layers);
  const Weight budget = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline.CostOnly(budget));
  }
}
BENCHMARK(BM_LayerByLayerRun)->Arg(256)->Arg(2048)->Arg(16384);

void BM_SimulatorReplay(benchmark::State& state) {
  const MvmGraph mvm = BuildMvm(96, 120, PrecisionConfig::Equal());
  MvmTilingScheduler tiling(mvm);
  const auto run = tiling.Run(1584);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Simulate(mvm.graph, 1584, run.schedule).cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(run.schedule.size()));
}
BENCHMARK(BM_SimulatorReplay);

void BM_MinMemorySearchDwt(benchmark::State& state) {
  const DwtGraph dwt = BuildDwt(256, 8, PrecisionConfig::DoubleAccumulator());
  for (auto _ : state) {
    DwtOptimalScheduler optimal(dwt);
    benchmark::DoNotOptimize(
        optimal.MinMemoryForLowerBound(kWordBits, 1 << 17));
  }
}
BENCHMARK(BM_MinMemorySearchDwt);

// ---------------------------------------------------------------------------
// --threads-sweep: thread-scaling table for the parallel search engine.
// ---------------------------------------------------------------------------

using SweepClock = std::chrono::steady_clock;

double ElapsedMs(SweepClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SweepClock::now() - start)
      .count();
}

struct SweepRow {
  std::string instance;
  std::size_t threads = 1;
  double time_ms = 0;
  double speedup = 1.0;
  Weight cost = kInfiniteCost;
  bool identical = true;  // schedule/costs bit-identical to threads=1
};

void PrintSweepHeader() {
  std::cout << std::left << std::setw(26) << "instance" << std::right
            << std::setw(8) << "threads" << std::setw(12) << "time_ms"
            << std::setw(9) << "speedup" << std::setw(12) << "cost"
            << std::setw(11) << "identical" << "\n";
}

void PrintSweepRow(const SweepRow& row) {
  std::cout << std::left << std::setw(26) << row.instance << std::right
            << std::setw(8) << row.threads << std::setw(12) << std::fixed
            << std::setprecision(1) << row.time_ms << std::setw(9)
            << std::setprecision(2) << row.speedup << std::setw(12)
            << row.cost << std::setw(11) << (row.identical ? "yes" : "NO")
            << "\n";
}

// Runs the exact search on `graph` at each thread count, checking every
// parallel schedule bit-for-bit against the sequential one.
void SweepBruteForce(const std::string& name, const Graph& graph,
                     Weight budget, const std::vector<std::size_t>& counts,
                     std::vector<SweepRow>& rows, bool& all_identical) {
  const BruteForceScheduler scheduler(graph);
  ScheduleResult baseline;
  double baseline_ms = 0;
  for (std::size_t threads : counts) {
    BruteForceOptions options;
    options.threads = threads;
    const SweepClock::time_point start = SweepClock::now();
    ScheduleResult result = scheduler.Run(budget, options);
    SweepRow row;
    row.instance = name;
    row.threads = threads;
    row.time_ms = ElapsedMs(start);
    row.cost = result.feasible ? result.cost : kInfiniteCost;
    if (threads == 1) {
      baseline = std::move(result);
      baseline_ms = row.time_ms;
    } else {
      row.speedup = row.time_ms > 0 ? baseline_ms / row.time_ms : 1.0;
      row.identical = result.feasible == baseline.feasible &&
                      result.cost == baseline.cost &&
                      result.schedule == baseline.schedule;
      all_identical = all_identical && row.identical;
    }
    PrintSweepRow(row);
    rows.push_back(row);
  }
}

// Times the analysis-layer budget sweep (EvaluateBudgets over a grid of
// exact CostOnly probes) at each thread count.
void SweepBudgetGrid(const std::string& name, const Graph& graph,
                     const std::vector<Weight>& budgets,
                     const std::vector<std::size_t>& counts,
                     std::vector<SweepRow>& rows, bool& all_identical) {
  const BruteForceScheduler scheduler(graph);
  const CostFn cost_fn = [&](Weight budget) {
    return scheduler.CostOnly(budget);
  };
  std::vector<Weight> baseline;
  double baseline_ms = 0;
  for (std::size_t threads : counts) {
    BudgetSweepOptions options;
    options.threads = threads;
    const SweepClock::time_point start = SweepClock::now();
    const std::vector<Weight> costs =
        EvaluateBudgets(cost_fn, budgets, options);
    SweepRow row;
    row.instance = name;
    row.threads = threads;
    row.time_ms = ElapsedMs(start);
    row.cost = costs.empty() ? kInfiniteCost : costs.back();
    if (threads == 1) {
      baseline = costs;
      baseline_ms = row.time_ms;
    } else {
      row.speedup = row.time_ms > 0 ? baseline_ms / row.time_ms : 1.0;
      row.identical = costs == baseline;
      all_identical = all_identical && row.identical;
    }
    PrintSweepRow(row);
    rows.push_back(row);
  }
}

int RunThreadsSweep(const CliArgs& args) {
  const std::int64_t dwt_n = args.GetInt("dwt-n", 8);
  const std::int64_t dwt_d = args.GetInt("dwt-d", 2);
  const Weight slack = args.GetInt("budget-slack", 2);
  const std::string csv_dir = args.GetString("csv", "");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (!DwtParamsValid(dwt_n, static_cast<int>(dwt_d))) {
    std::cerr << "error: invalid DWT parameters n=" << dwt_n
              << " d=" << dwt_d << "\n";
    return 2;
  }

  const std::vector<std::size_t> counts = {1, 2, 4, 8};
  std::vector<SweepRow> rows;
  bool all_identical = true;

  const DwtGraph dwt =
      BuildDwt(dwt_n, static_cast<int>(dwt_d), PrecisionConfig::Equal());
  const Weight dwt_budget = MinValidBudget(dwt.graph) + slack;
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight tree_budget = MinValidBudget(tree.graph) + slack;

  std::cout << "thread-scaling sweep (hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";
  PrintSweepHeader();
  SweepBruteForce("dwt(" + std::to_string(dwt_n) + "," +
                      std::to_string(dwt_d) + ")-exact",
                  dwt.graph, dwt_budget, counts, rows, all_identical);
  SweepBruteForce("kary(2,3)-exact", tree.graph, tree_budget, counts, rows,
                  all_identical);
  SweepBudgetGrid("kary(2,3)-budget-sweep", tree.graph,
                  bench::BudgetGridBits(MinValidBudget(tree.graph),
                                        4 * MinValidBudget(tree.graph)),
                  counts, rows, all_identical);

  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.push_back(
      {"instance", "threads", "time_ms", "speedup", "cost", "identical"});
  for (const SweepRow& row : rows) {
    csv_rows.push_back({row.instance, std::to_string(row.threads),
                        std::to_string(row.time_ms),
                        std::to_string(row.speedup),
                        std::to_string(row.cost),
                        row.identical ? "yes" : "no"});
  }
  bench::DumpCsv(csv_dir, "threads_sweep", csv_rows);

  if (!all_identical) {
    std::cerr << "FAIL: a parallel run diverged from the sequential "
                 "schedule (determinism contract violated)\n";
    return 1;
  }
  std::cout << "all parallel runs bit-identical to --threads 1\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --engine-compare: expanded-state and wall-clock race between the three
// exact engines, with a built-in identical-schedule check.
// ---------------------------------------------------------------------------

struct EngineRow {
  std::string instance;
  // "schedule" rows time a full Run() (search plus reconstruction) and
  // are identity-checked; "cost" rows time a CostOnly() probe — the
  // search alone.
  std::string mode = "schedule";
  SearchEngine engine = SearchEngine::kDijkstra;
  std::size_t threads = 1;
  double time_ms = 0;
  std::uint64_t expanded = 0;
  std::uint64_t waves = 0;
  Weight cost = kInfiniteCost;
  bool identical = true;  // bit-identical to dijkstra @ 1 thread
};

void PrintEngineHeader() {
  std::cout << std::left << std::setw(18) << "instance" << std::setw(10)
            << "mode" << std::setw(17) << "engine" << std::right
            << std::setw(8) << "threads" << std::setw(11) << "time_ms"
            << std::setw(11) << "expanded" << std::setw(7) << "waves"
            << std::setw(10) << "cost" << std::setw(11) << "identical"
            << "\n";
}

void PrintEngineRow(const EngineRow& row) {
  std::cout << std::left << std::setw(18) << row.instance << std::setw(10)
            << row.mode << std::setw(17) << ToString(row.engine)
            << std::right << std::setw(8) << row.threads << std::setw(11)
            << std::fixed << std::setprecision(1) << row.time_ms
            << std::setw(11) << row.expanded << std::setw(7) << row.waves
            << std::setw(10) << row.cost << std::setw(11)
            << (row.identical ? "yes" : "NO") << "\n";
}

constexpr SearchEngine kAllEngines[] = {SearchEngine::kDijkstra,
                                        SearchEngine::kAStar,
                                        SearchEngine::kBranchAndBound};

// Runs every engine at every thread count on one instance, checking each
// schedule bit-for-bit against the dijkstra sequential baseline, then a
// sequential cost-only probe per engine for the expanded-state reduction
// ratios the informed engines exist to deliver.
void CompareEngines(const std::string& name, const Graph& graph,
                    Weight budget, const std::vector<std::size_t>& counts,
                    std::vector<EngineRow>& rows, bool& all_identical) {
  const BruteForceScheduler scheduler(graph);
  ScheduleResult baseline;
  bool have_baseline = false;
  for (SearchEngine engine : kAllEngines) {
    for (std::size_t threads : counts) {
      BruteForceOptions options;
      options.engine = engine;
      options.threads = threads;
      SearchStats stats;
      options.stats = &stats;
      const SweepClock::time_point start = SweepClock::now();
      ScheduleResult result = scheduler.Run(budget, options);
      EngineRow row;
      row.instance = name;
      row.engine = engine;
      row.threads = threads;
      row.time_ms = ElapsedMs(start);
      row.expanded = stats.expanded;
      row.waves = stats.waves;
      row.cost = result.feasible ? result.cost : kInfiniteCost;
      if (!have_baseline) {
        baseline = std::move(result);
        have_baseline = true;
      } else {
        row.identical = result.feasible == baseline.feasible &&
                        result.cost == baseline.cost &&
                        result.schedule == baseline.schedule;
        all_identical = all_identical && row.identical;
      }
      PrintEngineRow(row);
      rows.push_back(row);
    }
  }
  std::uint64_t cost_baseline_expanded = 0;
  for (SearchEngine engine : kAllEngines) {
    BruteForceOptions options;
    options.engine = engine;
    options.threads = 1;
    SearchStats stats;
    options.stats = &stats;
    const SweepClock::time_point start = SweepClock::now();
    const Weight cost = scheduler.CostOnly(budget, options);
    EngineRow row;
    row.instance = name;
    row.mode = "cost";
    row.engine = engine;
    row.time_ms = ElapsedMs(start);
    row.expanded = stats.expanded;
    row.waves = stats.waves;
    row.cost = cost;
    if (engine == SearchEngine::kDijkstra) {
      cost_baseline_expanded = stats.expanded;
    } else {
      row.identical = cost == baseline.cost ||
                      (cost >= kInfiniteCost && !baseline.feasible);
      all_identical = all_identical && row.identical;
    }
    PrintEngineRow(row);
    if (engine != SearchEngine::kDijkstra && stats.expanded > 0) {
      std::cout << "  " << name << ": " << ToString(engine)
                << " cost probe expands " << std::fixed
                << std::setprecision(1)
                << static_cast<double>(cost_baseline_expanded) /
                       static_cast<double>(stats.expanded)
                << "x fewer states than dijkstra\n";
    }
    rows.push_back(row);
  }
}

int RunEngineCompare(const CliArgs& args) {
  const bool quick = args.GetBool("quick", false);
  const std::string json_path = args.GetString("json", "BENCH_exact.json");
  const std::int64_t dwt_n = args.GetInt("dwt-n", 8);
  const std::int64_t dwt_d = args.GetInt("dwt-d", quick ? 2 : 3);
  const Weight slack = args.GetInt("budget-slack", 2);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (!DwtParamsValid(dwt_n, static_cast<int>(dwt_d))) {
    std::cerr << "error: invalid DWT parameters n=" << dwt_n
              << " d=" << dwt_d << "\n";
    return 2;
  }

  const std::vector<std::size_t> counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 8};
  std::vector<EngineRow> rows;
  bool all_identical = true;

  const DwtGraph dwt =
      BuildDwt(dwt_n, static_cast<int>(dwt_d), PrecisionConfig::Equal());
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const std::string dwt_name =
      "dwt(" + std::to_string(dwt_n) + "," + std::to_string(dwt_d) + ")";
  const Weight tree_min = MinValidBudget(tree.graph);

  std::cout << "engine comparison (quick=" << (quick ? "yes" : "no")
            << ", hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";
  PrintEngineHeader();
  CompareEngines(dwt_name, dwt.graph, MinValidBudget(dwt.graph) + slack,
                 counts, rows, all_identical);
  // Tight and ample budgets stress different prunes: tight budgets are
  // dominated by spill exploration (where the heuristic is weakest),
  // ample budgets let an admissible bound steer almost straight to goal.
  CompareEngines("kary(2,3)-tight", tree.graph, tree_min + slack, counts,
                 rows, all_identical);
  CompareEngines("kary(2,3)-ample", tree.graph, 2 * tree_min, counts, rows,
                 all_identical);

  if (!json_path.empty()) {
    // One wrbpg-obs-v1 document: the table under "rows" plus the full
    // counters/gauges/spans snapshot the instrumented engines populated.
    obs::Json doc = obs::ObsDocument("engine-compare");
    doc.Set("quick", quick);
    obs::Json json_rows = obs::Json::Array();
    for (const EngineRow& row : rows) {
      obs::Json r = obs::Json::Object();
      r.Set("instance", row.instance);
      r.Set("mode", row.mode);
      r.Set("engine", ToString(row.engine));
      r.Set("threads", static_cast<std::uint64_t>(row.threads));
      r.Set("time_ms", row.time_ms);
      r.Set("expanded", row.expanded);
      r.Set("waves", row.waves);
      r.Set("cost", row.cost);
      r.Set("identical", row.identical);
      json_rows.Push(std::move(r));
    }
    doc.Set("rows", std::move(json_rows));
    doc.Set("all_identical", all_identical);
    std::string error;
    if (!obs::WriteJsonFile(json_path, doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "  [json] " << json_path << "\n";
  }

  if (!all_identical) {
    std::cerr << "FAIL: an engine diverged from the dijkstra sequential "
                 "schedule (determinism contract violated)\n";
    return 1;
  }
  std::cout << "all engines and thread counts bit-identical to "
               "dijkstra --threads 1\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --anytime-sweep: gap-vs-deadline table for the bb anytime engine.
// ---------------------------------------------------------------------------

struct AnytimeRow {
  std::string instance;
  double deadline_ms = 0;  // 0 = unbounded
  double time_ms = 0;
  Weight cost = kInfiniteCost;
  Weight cert_lb = 0;  // certified root bound primed into the search
  Weight lower_bound = 0;
  Weight gap = kInfiniteCost;
  std::string termination;
  bool valid = false;  // schedule replayed through the simulator
};

void PrintAnytimeHeader() {
  std::cout << std::left << std::setw(22) << "instance" << std::right
            << std::setw(12) << "deadline_ms" << std::setw(10) << "time_ms"
            << std::setw(9) << "cost" << std::setw(9) << "cert_lb"
            << std::setw(9) << "lb" << std::setw(9)
            << "gap" << std::left << "  " << std::setw(12) << "termination"
            << std::right << std::setw(7) << "valid" << "\n";
}

void PrintAnytimeRow(const AnytimeRow& row) {
  std::cout << std::left << std::setw(22) << row.instance << std::right
            << std::setw(12) << std::fixed << std::setprecision(0)
            << row.deadline_ms << std::setw(10) << std::setprecision(1)
            << row.time_ms << std::setw(9) << row.cost << std::setw(9)
            << row.cert_lb << std::setw(9)
            << row.lower_bound << std::setw(9) << row.gap << std::left
            << "  " << std::setw(12) << row.termination << std::right
            << std::setw(7) << (row.valid ? "yes" : "NO") << "\n";
}

int RunAnytimeSweep(const CliArgs& args) {
  const bool quick = args.GetBool("quick", false);
  const std::string json_path = args.GetString("json", "BENCH_anytime.json");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  struct Instance {
    std::string name;
    Graph graph;
    Weight budget = 0;
  };
  std::vector<Instance> instances;
  {
    // 64 nodes — past the practical reach of an unbounded exact solve;
    // the seed is pinned so the table is reproducible run to run.
    Rng rng(42);
    RandomDagOptions options;
    options.num_layers = 8;
    options.nodes_per_layer = 8;
    Graph graph = BuildRandomDag(rng, options);
    const Weight budget = MinValidBudget(graph) + 39;
    instances.push_back({"random(8x8,seed42)", std::move(graph), budget});
  }
  {
    const DwtGraph dwt = BuildDwt(16, 2, PrecisionConfig::Equal());
    const Weight budget = MinValidBudget(dwt.graph) + 2;
    instances.push_back({"dwt(16,2)", dwt.graph, budget});
  }

  const std::vector<double> deadlines =
      quick ? std::vector<double>{25, 100}
            : std::vector<double>{10, 50, 200, 1000};

  std::vector<AnytimeRow> rows;
  bool all_sound = true;
  std::cout << "anytime sweep: bb engine, gap vs deadline (quick="
            << (quick ? "yes" : "no") << ")\n";
  PrintAnytimeHeader();
  for (const Instance& instance : instances) {
    const BruteForceScheduler scheduler(instance.graph);
    // The certified start-state bound (ganalysis): primed into the search
    // root, it tightens the reported gap of interrupted runs without
    // touching the expansion order or the schedule (brute_force.h).
    const Weight cert_lb =
        BestCertifiedBound(instance.graph, instance.budget);
    for (double deadline_ms : deadlines) {
      BruteForceOptions options;
      options.engine = SearchEngine::kBranchAndBound;
      options.root_lower_bound = cert_lb;
      const CancelToken token = CancelToken::WithDeadlineMs(deadline_ms);
      options.cancel = &token;
      const SweepClock::time_point start = SweepClock::now();
      const ScheduleResult result =
          scheduler.Run(instance.budget, options);
      AnytimeRow row;
      row.instance = instance.name;
      row.deadline_ms = deadline_ms;
      row.time_ms = ElapsedMs(start);
      row.cert_lb = cert_lb;
      if (result.feasible) {
        const SimResult sim =
            Simulate(instance.graph, instance.budget, result.schedule);
        row.valid = sim.valid;
        row.cost = result.cost;
        row.lower_bound = result.lower_bound;
        row.gap = result.optimality_gap;
        row.termination = ToString(result.termination);
        // The anytime contract every row must satisfy: a simulator-valid
        // schedule whose certified gap is finite and internally
        // consistent.
        const bool sound = sim.valid && result.lower_bound <= result.cost &&
                           result.optimality_gap ==
                               result.cost - result.lower_bound &&
                           result.optimality_gap < kInfiniteCost;
        all_sound = all_sound && sound;
      } else {
        row.termination = result.timed_out ? "timed-out" : "infeasible";
        all_sound = false;
      }
      PrintAnytimeRow(row);
      rows.push_back(std::move(row));
    }
  }

  if (!json_path.empty()) {
    obs::Json doc = obs::ObsDocument("anytime-sweep");
    doc.Set("quick", quick);
    obs::Json json_rows = obs::Json::Array();
    for (const AnytimeRow& row : rows) {
      obs::Json r = obs::Json::Object();
      r.Set("instance", row.instance);
      r.Set("deadline_ms", row.deadline_ms);
      r.Set("time_ms", row.time_ms);
      r.Set("cost", row.cost);
      r.Set("cert_lb", row.cert_lb);
      r.Set("lower_bound", row.lower_bound);
      r.Set("gap", row.gap);
      r.Set("termination", row.termination);
      r.Set("valid", row.valid);
      json_rows.Push(std::move(r));
    }
    doc.Set("rows", std::move(json_rows));
    doc.Set("all_sound", all_sound);
    std::string error;
    if (!obs::WriteJsonFile(json_path, doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "  [json] " << json_path << "\n";
  }

  if (!all_sound) {
    std::cerr << "FAIL: an anytime row violated the contract (invalid "
                 "schedule, unsound gap, or no result)\n";
    return 1;
  }
  std::cout << "every deadline produced a simulator-valid schedule with a "
               "sound optimality gap\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --bound-compare: Prop 2.4 vs the budget-aware certificates (DESIGN.md
// §12) across the builtin families, with witness re-verification and a
// DP-optimum soundness cross-check.
// ---------------------------------------------------------------------------

int RunBoundCompare(const CliArgs& args) {
  const std::string json_path = args.GetString("json", "BENCH_bounds.json");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  struct Instance {
    std::string name;
    Graph graph;
    // Closed-form DP optimum at a given budget; kInfiniteCost = unknown.
    std::function<Weight(Weight)> optimum;
    bool acceptance = false;  // must show strict dominance at min budget
  };
  std::vector<Instance> instances;
  {
    const DwtGraph dwt = BuildDwt(16, 2, PrecisionConfig::Equal());
    const Graph& g = dwt.graph;
    instances.push_back(
        {"dwt(16,2)", g,
         [dwt](Weight b) { return DwtOptimalScheduler(dwt).CostOnly(b); },
         true});
  }
  {
    const TreeGraph tree = BuildPerfectTree(2, 4);
    Graph g = tree.graph;
    instances.push_back(
        {"kary(2,4)", g,
         [g](Weight b) { return KaryTreeScheduler(g).CostOnly(b); }, true});
  }
  instances.push_back({"butterfly(8)", BuildButterfly(8).graph, nullptr,
                       false});
  instances.push_back({"mvm(4,4)", BuildMvm(4, 4).graph, nullptr, false});
  {
    Rng rng(42);
    RandomDagOptions options;
    options.num_layers = 6;
    options.nodes_per_layer = 5;
    instances.push_back({"random(6x5,seed42)", BuildRandomDag(rng, options),
                         nullptr, false});
  }

  std::cout << std::left << std::setw(20) << "instance" << std::right
            << std::setw(8) << "budget" << std::setw(8) << "alb"
            << std::setw(11) << "wavefront" << std::setw(9) << "segment"
            << std::setw(9) << "optimum" << std::left << "  verdict\n";

  bool ok = true;
  obs::Json rows = obs::Json::Array();
  for (const Instance& instance : instances) {
    const Weight min_budget = MinValidBudget(instance.graph);
    for (const Weight budget :
         {min_budget, min_budget + 2, min_budget + 16}) {
      const std::vector<BoundCertificate> certs =
          ComputeBoundCertificates(instance.graph, budget);
      Weight values[3] = {0, 0, 0};
      bool verified = true;
      for (std::size_t i = 0; i < certs.size(); ++i) {
        values[i] = certs[i].value;
        const CertificateCheck check =
            VerifyCertificate(instance.graph, certs[i]);
        if (!check.ok) {
          std::cerr << "FAIL: " << instance.name << " @" << budget << " "
                    << ToString(certs[i].kind)
                    << " witness rejected: " << check.error << "\n";
          verified = false;
        }
      }
      const Weight alb = values[0];
      const Weight best = std::max({values[0], values[1], values[2]});
      const Weight optimum =
          instance.optimum ? instance.optimum(budget) : kInfiniteCost;
      // Soundness: a certificate may never exceed the DP optimum.
      const bool sound = optimum >= kInfiniteCost || best <= optimum;
      // Acceptance rows: the budget-aware bounds must STRICTLY dominate
      // Prop 2.4 at the paper's minimum valid budget.
      const bool needs_dominance =
          instance.acceptance && budget == min_budget;
      const bool dominates = best > alb;
      const bool row_ok =
          verified && sound && (!needs_dominance || dominates);
      ok = ok && row_ok;

      std::string verdict = row_ok ? "ok" : "FAIL";
      if (row_ok && dominates) {
        verdict += " (+" + std::to_string(best - alb) + ")";
      }
      if (row_ok && optimum < kInfiniteCost && best == optimum) {
        verdict += " tight";
      }
      std::cout << std::left << std::setw(20) << instance.name << std::right
                << std::setw(8) << budget << std::setw(8) << alb
                << std::setw(11) << values[1] << std::setw(9) << values[2]
                << std::setw(9)
                << (optimum < kInfiniteCost ? std::to_string(optimum)
                                            : std::string("-"))
                << std::left << "  " << verdict << "\n";

      obs::Json row = obs::Json::Object();
      row.Set("instance", instance.name);
      row.Set("budget", budget);
      row.Set("algorithmic", alb);
      row.Set("wavefront", values[1]);
      row.Set("segment", values[2]);
      row.Set("best", best);
      if (optimum < kInfiniteCost) row.Set("optimum", optimum);
      row.Set("verified", verified);
      row.Set("dominates", dominates);
      rows.Push(std::move(row));
    }
  }

  if (!json_path.empty()) {
    obs::Json doc = obs::ObsDocument("bound-compare");
    doc.Set("rows", std::move(rows));
    doc.Set("all_ok", ok);
    std::string error;
    if (!obs::WriteJsonFile(json_path, doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "  [json] " << json_path << "\n";
  }

  if (!ok) {
    std::cerr << "FAIL: a certificate failed verification, exceeded the DP "
                 "optimum, or lost strict dominance on a paper instance\n";
    return 1;
  }
  std::cout << "every witness re-verified; budget-aware bounds strictly "
               "dominate Prop 2.4 on the paper instances\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --canonical-scaling: the canonical layer's growth with graph size on
// relabeled bare family instances (DESIGN.md §12.2).
// ---------------------------------------------------------------------------

int RunCanonicalScaling(const CliArgs& args) {
  const std::string json_path = args.GetString("json", "BENCH_canonical.json");
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  constexpr int kMinK = 8;
  constexpr int kMaxK = 14;
  constexpr int kRounds = 5;

  struct Row {
    std::string family;
    int k = 0;
    std::string label;
    Graph reference;
    Graph bare;
    Weight budget = 0;
    Schedule schedule;
    std::string bytes;  // wrbpg-bin-v1 encoding of `bare`
    double hash_ms = 1e300, iso_ms = 1e300, recog_ms = 1e300;
    double total_ms = 1e300, simulate_ms = 1e300, decode_ms = 1e300;
    double bb_setup_ms = 1e300;
    bool found = true, recognized = true, hash_invariant = true;
    bool valid = true, round_trip = true;
  };
  std::vector<Row> rows;
  for (const std::string family : {"kary", "dwt"}) {
    for (int k = kMinK; k <= kMaxK; ++k) {
      Row row;
      row.family = family;
      row.k = k;
      const std::int64_t n = std::int64_t{1} << k;
      row.label = family == "kary" ? "kary:2," + std::to_string(k)
                                   : "dwt:" + std::to_string(n) + "," +
                                         std::to_string(k);
      row.reference = family == "kary" ? BuildPerfectTree(2, k).graph
                                       : BuildDwt(n, k).graph;
      row.bare = testing::PermuteGraph(
          row.reference, 0xca11u + static_cast<std::uint64_t>(k));
      row.budget = MinValidBudget(row.bare) + 16;
      row.schedule = BeladyScheduler(row.bare).Run(row.budget).schedule;
      row.bytes = ToBinary(row.bare);
      rows.push_back(std::move(row));
    }
  }
  const CancelToken cancelled;
  cancelled.Cancel();
  BruteForceOptions bb;
  bb.engine = SearchEngine::kBranchAndBound;
  bb.threads = 1;
  bb.cancel = &cancelled;
  // Each round times every row once, so a burst of host noise lands on
  // one row's sample in one round rather than on all of its samples;
  // every time is the fastest round's.
  for (int round = 0; round < kRounds; ++round) {
    for (Row& row : rows) {
      SweepClock::time_point start = SweepClock::now();
      const GraphHash hash = HashGraph(row.bare);
      const double h = ElapsedMs(start);
      start = SweepClock::now();
      const auto map = FindIsomorphism(row.reference, row.bare);
      const double i = ElapsedMs(start);
      start = SweepClock::now();
      const RecognitionResult recognition = RecognizeFamily(row.bare);
      const double g = ElapsedMs(start);
      start = SweepClock::now();
      const SimResult sim = Simulate(row.bare, row.budget, row.schedule);
      row.simulate_ms = std::min(row.simulate_ms, ElapsedMs(start));
      row.valid = row.valid && sim.valid;
      start = SweepClock::now();
      const GraphParseResult decoded = ParseGraphBinary(row.bytes);
      row.decode_ms = std::min(row.decode_ms, ElapsedMs(start));
      row.round_trip =
          row.round_trip && decoded.ok && decoded.graph == row.bare;
      start = SweepClock::now();
      BruteForceScheduler(row.bare).Run(row.budget, bb);
      row.bb_setup_ms = std::min(row.bb_setup_ms, ElapsedMs(start));
      row.hash_ms = std::min(row.hash_ms, h);
      row.iso_ms = std::min(row.iso_ms, i);
      row.recog_ms = std::min(row.recog_ms, g);
      row.total_ms = std::min(row.total_ms, h + i + g);
      row.found = row.found && map.has_value();
      row.recognized = row.recognized && recognition.label == row.label;
      row.hash_invariant =
          row.hash_invariant && hash == HashGraph(row.reference);
    }
  }

  std::cout << std::left << std::setw(16) << "instance" << std::right
            << std::setw(8) << "nodes" << std::setw(10) << "hash_ms"
            << std::setw(10) << "iso_ms" << std::setw(10) << "recog_ms"
            << std::setw(10) << "total_ms" << std::setw(7) << "found"
            << std::setw(7) << "recog" << std::setw(7) << "hash="
            << std::setw(9) << "moves" << std::setw(8) << "sim_ms"
            << std::setw(7) << "valid" << std::setw(8) << "dec_ms"
            << std::setw(7) << "trip" << std::setw(8) << "bb_ms" << "\n";
  obs::Json json_rows = obs::Json::Array();
  for (const Row& row : rows) {
    auto yes_no = [](bool b) { return b ? "yes" : "NO"; };
    std::cout << std::left << std::setw(16) << row.label << std::right
              << std::setw(8) << row.reference.num_nodes() << std::fixed
              << std::setprecision(3) << std::setw(10) << row.hash_ms
              << std::setw(10) << row.iso_ms << std::setw(10)
              << row.recog_ms << std::setw(10) << row.total_ms
              << std::setw(7) << yes_no(row.found) << std::setw(7)
              << yes_no(row.recognized) << std::setw(7)
              << yes_no(row.hash_invariant) << std::setw(9)
              << row.schedule.size() << std::setw(8) << row.simulate_ms
              << std::setw(7) << yes_no(row.valid) << std::setw(8)
              << row.decode_ms << std::setw(7) << yes_no(row.round_trip)
              << std::setw(8) << row.bb_setup_ms << "\n";

    obs::Json json_row = obs::Json::Object();
    json_row.Set("instance", row.label);
    json_row.Set("family", row.family);
    json_row.Set("k", row.k);
    json_row.Set("nodes",
                 static_cast<std::uint64_t>(row.reference.num_nodes()));
    json_row.Set("edges", row.reference.num_edges());
    json_row.Set("hash_ms", row.hash_ms);
    json_row.Set("iso_ms", row.iso_ms);
    json_row.Set("recognize_ms", row.recog_ms);
    json_row.Set("time_ms", row.total_ms);
    json_row.Set("found", row.found);
    json_row.Set("recognized", row.recognized);
    json_row.Set("hash_invariant", row.hash_invariant);
    json_row.Set("moves", row.schedule.size());
    json_row.Set("simulate_ms", row.simulate_ms);
    json_row.Set("valid", row.valid);
    json_row.Set("decode_ms", row.decode_ms);
    json_row.Set("round_trip", row.round_trip);
    json_row.Set("bb_setup_ms", row.bb_setup_ms);
    json_rows.Push(std::move(json_row));
  }

  if (!json_path.empty()) {
    obs::Json doc = obs::ObsDocument("canonical-scaling");
    doc.Set("rows", std::move(json_rows));
    std::string error;
    if (!obs::WriteJsonFile(json_path, doc, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cout << "  [json] " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace wrbpg

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads-sweep") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunThreadsSweep(args);
    }
    if (std::string_view(argv[i]) == "--engine-compare") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunEngineCompare(args);
    }
    if (std::string_view(argv[i]) == "--anytime-sweep") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunAnytimeSweep(args);
    }
    if (std::string_view(argv[i]) == "--bound-compare") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunBoundCompare(args);
    }
    if (std::string_view(argv[i]) == "--canonical-scaling") {
      const wrbpg::CliArgs args(argc, argv);
      return wrbpg::RunCanonicalScaling(args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
