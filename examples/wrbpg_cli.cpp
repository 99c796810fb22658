// wrbpg_cli — schedule arbitrary CDAGs from the command line.
//
// Works on the text graph format of core/serialize.h, so downstream users
// can drive the library without writing C++:
//
//   wrbpg_cli info <graph>
//       model properties: nodes, edges, min valid budget, lower bound.
//   wrbpg_cli schedule <graph> --budget <bits>
//                      [--algo greedy|belady|brute|robust] [--deadline-ms N]
//                      [--engine dijkstra|astar|bb]
//                      [--memory-cap-mb N]
//       emit a validated schedule (move per line) on stdout; stats on stderr.
//       --engine runs the named exact search engine directly; with
//       --deadline-ms the bb engine is anytime — it returns its incumbent
//       schedule plus a certified optimality gap when the deadline hits,
//       and the stderr line reports cost=.. lb=.. gap=.. termination=..
//       (the anytime contract, DESIGN.md §11). --memory-cap-mb bounds the
//       search's container bytes the same way. Without --engine,
//       --deadline-ms (or --algo robust) runs the deadline-aware fallback
//       chain (recognition -> exact -> belady -> greedy-topo) and reports
//       per-stage provenance.
//   wrbpg_cli validate <graph> <schedule.txt> --budget <bits>
//       replay a schedule through the simulator and report cost/peak.
//   wrbpg_cli repair <graph> <schedule.txt> --budget <bits>
//       patch a broken schedule into a simulator-valid one (repaired moves
//       on stdout) or print a structured diagnostic and exit nonzero.
//   wrbpg_cli trace <graph> <schedule.txt> --budget <bits>
//       render the schedule's fast-memory occupancy timeline.
//   wrbpg_cli lint <graph> [<schedule.txt> --budget <bits>]
//                  [--json] [--fix]
//       static analysis without running the simulator: with only a graph,
//       the graph-level rules; with a schedule, the full pass (every
//       violation of the simulator's rules kernel, plus wasted-I/O
//       warnings with machine-readable fix-its). --fix applies the safe
//       fix-its (re-verified, cost never increases) and prints the fixed
//       schedule on stdout with diagnostics on stderr. Exits 1 when any
//       error-severity diagnostic fires.
//   wrbpg_cli profile <graph> [--budget <bits>]
//       run a representative workload (budget sweep, structure-specific DP
//       when the graph is a builtin, the bb engine, the robust fallback
//       chain) and print the observability report: timing-span tree,
//       counters, gauges.
//       Defaults the budget to MinValidBudget + 2 so every stage has work.
//   wrbpg_cli analyze <graph> [--budget <bits>] [--json]
//       run the static graph analyzer (DESIGN.md §12): canonical hash and
//       verified vertex orbits, closed-form family recognition, and the
//       budget-aware I/O lower-bound certificates with their re-verified
//       witnesses. Defaults the budget to MinValidBudget. --json emits
//       the wrbpg-ganalysis-v1 document instead of the text report.
//   wrbpg_cli explore <graph> [--budget-lo N] [--budget-hi N]
//                     [--budget-step N] [--slack N] [--words CSV]
//                     [--scheduler bb|robust] [--deadline-ms N]
//                     [--max-states N] [--json]
//       pre-synthesis design-space exploration (DESIGN.md §15): sweep the
//       red-budget band × SRAM word widths, price every point through the
//       anytime solver + SRAM/energy models, and report the Pareto
//       frontier (table + ASCII area-vs-energy plot, or the
//       wrbpg-explore-v1 JSON document with --json). Every point carries
//       a certified optimality gap; invalid SRAM geometries are
//       skipped-and-counted.
//   wrbpg_cli dot <graph>
//       Graphviz rendering of the dataflow.
//   wrbpg_cli serve [<requests.txt>] [--cache-mb N] [--shards N]
//                   [--no-iso] [--deadline-ms N]
//       scheduling-as-a-service loop (DESIGN.md §13): read requests — one
//       `<graph> <budget> [<deadline-ms>]` per line — from a file or
//       stdin, serve each through a shared ScheduleService (iso-invariant
//       schedule cache + single-flight dedup + the robust chain on
//       misses), print one result line per request, and a cache/dedup
//       summary on stderr.
//   wrbpg_cli convert <graph> [--out PATH] [--format bin|text]
//       re-encode a graph between the text format and the compact
//       wrbpg-bin-v1 binary format (core/binio.h, docs/FORMATS.md).
//
// <graph> is a path to a core/serialize.h text file, a path to a
// wrbpg-bin-v1 binary file (detected by magic), or a builtin
// generator spec (dataflows/builtin_spec.h) — "dwt:N,D" for DWT(N, D)
// (Definition 3.1), "kary:K,LEVELS" for the perfect k-ary tree
// (Definition 3.6), "mvm:M,N" for MVM(M, N) (Definition 4.1),
// "butterfly:K" for the radix-2 butterfly on K inputs, or
// "random:LAYERS,WIDTH,SEED" for a seeded random layered CDAG
// (dataflows/random_dag.h) — so CI and quick experiments need no graph
// files on disk.
//
// `schedule` additionally accepts --orbit-prune with --engine: the
// searcher skips the root loads of orbit-equivalent sources (verified
// automorphisms, ganalysis/canonical.h), which shrinks the root fanout
// without changing the answer — the canonical optimal schedule's first
// move is its orbit representative's load, so cost and schedule are
// bit-identical with the flag on or off.
//
// Every verb accepts --threads N to set the worker-thread count for the
// search engines (brute force, the robust chain). The default is the
// hardware concurrency (or WRBPG_THREADS when set); --threads 1 forces
// the fully sequential paths. The schedule emitted is identical at any
// thread count — see the determinism contract in DESIGN.md §8.
//
// Every verb also accepts --metrics-json <path>: after the verb runs, the
// process-wide observability snapshot (wrbpg-obs-v1, DESIGN.md §10) is
// written there. Metrics are purely observational — the emitted schedule
// is bit-identical with or without the flag.
//
// Example:
//   $ cat > add3.txt << 'EOF'
//   wrbpg-graph v1
//   node 0 16 a
//   node 1 16 b
//   node 2 32 sum
//   edge 0 2
//   edge 1 2
//   EOF
//   $ wrbpg_cli schedule add3.txt --budget 64 --algo belady
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/serialize.h"
#include "core/simulator.h"
#include "core/trace.h"
#include "dataflows/builtin_spec.h"
#include "explore/explore.h"
#include "explore/report.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/canonical.h"
#include "ganalysis/ganalysis.h"
#include "lint/fixes.h"
#include "lint/lint.h"
#include "obs/report.h"
#include "robust/repair.h"
#include "robust/robust_scheduler.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/kary_tree.h"
#include "service/service.h"
#include "util/cli.h"

using namespace wrbpg;

namespace {

int Usage() {
  std::cerr << "usage: wrbpg_cli <info|schedule|validate|trace|lint|repair|"
               "analyze|explore|profile|dot|serve|convert> <graph.txt|"
            << BuiltinSpecHelp()
            << "> [schedule.txt] "
               "[--budget N] [--algo greedy|belady|brute|robust] "
               "[--engine dijkstra|astar|bb] "
               "[--deadline-ms N] [--memory-cap-mb N] [--threads N] "
               "[--orbit-prune] [--metrics-json path] [--json] [--fix]\n"
               "run `wrbpg_cli --help` for the full per-verb reference\n";
  return 2;
}

// The man-page-style reference. docs/CLI.md embeds this output verbatim
// (between BEGIN/END markers) and CI's docs-check job diffs the two, so
// the written reference cannot drift from the binary: edit this text and
// regenerate the doc block (tools/docs_check.sh --update).
int PrintHelp() {
  std::cout <<
      "wrbpg_cli - weighted red-blue pebble game scheduling toolkit\n"
      "\n"
      "usage: wrbpg_cli <verb> [<arguments>] [flags]\n"
      "\n"
      "verbs:\n"
      "  info <graph>\n"
      "      Model properties: nodes, edges, sources, sinks, total weight,\n"
      "      minimum valid budget (Prop 2.3), algorithmic I/O lower bound\n"
      "      (Prop 2.4).\n"
      "  dot <graph>\n"
      "      Graphviz rendering of the dataflow on stdout.\n"
      "  analyze <graph> [--budget N] [--json]\n"
      "      Static graph analyzer: canonical hash, verified vertex orbits,\n"
      "      closed-form family recognition, budget-aware I/O lower-bound\n"
      "      certificates. --budget defaults to the minimum valid budget.\n"
      "      --json emits the wrbpg-ganalysis-v1 document.\n"
      "  explore <graph> [--budget-lo N] [--budget-hi N] [--budget-step N]\n"
      "          [--slack N] [--words CSV] [--scheduler bb|robust]\n"
      "          [--deadline-ms N] [--max-states N] [--json]\n"
      "      Pre-synthesis design-space exploration (DESIGN.md §15): sweep\n"
      "      the red-budget band at --budget-step (default 16) across the\n"
      "      SRAM word widths in --words (default 8,16,32), price every\n"
      "      point through the anytime solver and the SRAM/energy models,\n"
      "      and report the Pareto frontier over (area, leakage, energy,\n"
      "      io_cost) as a table plus an ASCII area-vs-energy plot. The\n"
      "      band defaults to [min valid budget, derived min-memory +\n"
      "      --slack]. --scheduler bb (default) prices each budget with\n"
      "      the branch-and-bound engine capped at --max-states (default\n"
      "      200000): results are bit-identical at any --threads count;\n"
      "      robust runs the fallback chain under a per-point\n"
      "      --deadline-ms slice (bounded latency, wall-clock-dependent\n"
      "      answers). Every point carries a\n"
      "      certified optimality gap; SRAM geometries the synthesizer\n"
      "      rejects are skipped-and-counted. --json emits the\n"
      "      wrbpg-explore-v1 document. Exits 1 when the frontier is\n"
      "      empty.\n"
      "  lint <graph> [<schedule> --budget N] [--json] [--fix]\n"
      "      Static analysis without the simulator. Graph-only mode checks\n"
      "      the graph-level rules; with a schedule and budget, the full\n"
      "      pass (validity errors plus wasted-I/O warnings with fix-its).\n"
      "      --fix applies the safe fix-its and prints the fixed schedule.\n"
      "      Exits 1 when any error-severity diagnostic fires.\n"
      "  schedule <graph> --budget N [--algo greedy|belady|brute|robust]\n"
      "           [--engine dijkstra|astar|bb]\n"
      "           [--deadline-ms N] [--memory-cap-mb N] [--orbit-prune]\n"
      "      Emit a validated schedule (one move per line) on stdout,\n"
      "      stats on stderr. --engine runs the named exact engine\n"
      "      directly; with --deadline-ms the bb engine is anytime and\n"
      "      returns its incumbent plus a certified optimality gap.\n"
      "      Without --engine, --deadline-ms (or --algo robust) runs the\n"
      "      deadline-aware fallback chain with per-stage provenance.\n"
      "      --orbit-prune skips root loads of orbit-equivalent sources.\n"
      "  validate <graph> <schedule> --budget N\n"
      "      Replay a schedule through the simulator; report cost, peak\n"
      "      red weight, and move counts, or the first rule violation.\n"
      "  repair <graph> <schedule> --budget N\n"
      "      Patch a broken schedule into a simulator-valid one (repaired\n"
      "      moves on stdout) or print a structured diagnostic and exit\n"
      "      nonzero.\n"
      "  trace <graph> <schedule> --budget N\n"
      "      Render the schedule's fast-memory occupancy timeline.\n"
      "  profile <graph> [--budget N] [--deadline-ms N]\n"
      "      Run a representative workload (budget sweep, family DP when\n"
      "      the graph is a builtin, the robust chain) and print the\n"
      "      observability report. --budget defaults to the minimum valid\n"
      "      budget plus 2.\n"
      "  serve [<requests.txt>] [--cache-mb N] [--shards N] [--no-iso]\n"
      "        [--deadline-ms N]\n"
      "      Scheduling-as-a-service loop. Requests are read from the\n"
      "      file (or stdin when absent or '-'), one per line:\n"
      "          <graph> <budget> [<deadline-ms>]\n"
      "      ('#' starts a comment). Each request is served through a\n"
      "      shared ScheduleService: an iso-invariant schedule cache\n"
      "      (--cache-mb, default 64; 0 disables), single-flight dedup,\n"
      "      and the robust fallback chain on misses. One result line per\n"
      "      request on stdout; cache/dedup summary on stderr. --no-iso\n"
      "      disables serving permuted isomorphs from cache;\n"
      "      --deadline-ms sets the default per-solve deadline for\n"
      "      requests that carry none. Exits 1 when any request failed.\n"
      "  convert <graph> [--out PATH] [--format bin|text]\n"
      "      Re-encode a graph between the text format (wrbpg-graph v1)\n"
      "      and the compact wrbpg-bin-v1 binary format. Default format:\n"
      "      bin. Writes to stdout when --out is absent.\n"
      "\n"
      "graph arguments:\n"
      "  A path to a wrbpg-graph v1 text file, a path to a wrbpg-bin-v1\n"
      "  binary file (detected by the WBIN magic), or a builtin generator\n"
      "  spec: " << BuiltinSpecHelp() << ".\n"
      "\n"
      "schedule arguments:\n"
      "  A path to a wrbpg-schedule v1 text file or a wrbpg-bin-v1 binary\n"
      "  file (detected by the WBIN magic).\n"
      "\n"
      "global flags (accepted by every verb):\n"
      "  --threads N\n"
      "      Worker threads for the search engines. Default: hardware\n"
      "      concurrency (or WRBPG_THREADS when set); --threads 1 forces\n"
      "      the sequential paths. Schedules are identical at any thread\n"
      "      count (determinism contract, DESIGN.md §8).\n"
      "  --metrics-json PATH\n"
      "      After the verb runs, write the process-wide observability\n"
      "      snapshot (wrbpg-obs-v1, docs/FORMATS.md) to PATH.\n"
      "  --help\n"
      "      Print this reference and exit 0.\n"
      "\n"
      "Flags are validated per verb: a flag that belongs to a different\n"
      "verb is rejected with an error naming the verb that owns it.\n"
      "Positional arguments are counted per verb: a stray one is\n"
      "rejected with an error naming it.\n";
  return 0;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open '" << path << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

// A graph argument resolved from either a text file or a builtin generator
// spec (dataflows/builtin_spec.h). The spec path keeps the structure
// wrapper so the DP-aware verbs can route on it; graph() picks the live
// graph either way.
struct LoadedGraph {
  bool ok = false;
  BuiltinGraph builtin;  // engaged when the argument was a spec
  Graph parsed;          // engaged when the argument was a file

  const Graph& graph() const {
    return builtin.ok ? builtin.graph() : parsed;
  }
  const DwtGraph* dwt() const {
    return builtin.dwt ? &*builtin.dwt : nullptr;
  }
  const TreeGraph* tree() const {
    return builtin.tree ? &*builtin.tree : nullptr;
  }
};

LoadedGraph LoadGraphArg(const std::string& spec) {
  LoadedGraph out;
  if (IsBuiltinSpec(spec)) {
    out.builtin = BuildBuiltinGraph(spec);
    if (!out.builtin.ok) {
      std::cerr << "error: " << out.builtin.error << "\n";
      return out;
    }
    out.ok = true;
    return out;
  }
  std::string graph_text;
  if (!ReadFile(spec, graph_text)) return out;
  // wrbpg-bin-v1 files are detected by magic, so every verb transparently
  // accepts either encoding.
  GraphParseResult parsed = LooksLikeBinary(graph_text)
                                ? ParseGraphBinary(graph_text)
                                : ParseGraphText(graph_text);
  if (!parsed.ok) {
    std::cerr << "error: " << spec << ": " << parsed.error << "\n";
    return out;
  }
  out.parsed = std::move(parsed.graph);
  out.ok = true;
  return out;
}

// Schedule files get the same magic-based encoding detection as graphs.
ScheduleParseResult LoadScheduleArg(const std::string& path) {
  ScheduleParseResult out;
  std::ifstream in(path);
  if (!in) {
    out.error = "cannot open file";
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  return LooksLikeBinary(text) ? ParseScheduleBinary(text)
                               : ParseScheduleText(text);
}

// The `profile` verb: exercise every instrumented layer once — a Belady
// budget sweep through the infeasible band (analysis counters), the
// structure-specific DP when the graph is a builtin (memo counters), the
// bb engine (search counters), and the robust fallback chain (simulator
// verification + per-stage spans) — then print the observability report.
int RunProfile(const CliArgs& args, const LoadedGraph& loaded,
               Weight budget) {
  const Graph& graph = loaded.graph();
  const Weight min_budget = MinValidBudget(graph);
  if (budget <= 0) budget = min_budget + 2;

  const CostFn belady_cost = [&](Weight b) {
    const ScheduleResult r = BeladyScheduler(graph).Run(b);
    if (!r.feasible) return kInfiniteCost;
    const SimResult sim = Simulate(graph, b, r.schedule);
    return sim.valid ? sim.cost : kInfiniteCost;
  };
  // A short grid straddling MinValidBudget: the sub-minimum entries are
  // skipped analytically (probes_skipped), the rest evaluated.
  std::vector<Weight> grid = {min_budget - 2, min_budget - 1, min_budget,
                              (min_budget + budget) / 2, budget};
  grid.erase(std::remove_if(grid.begin(), grid.end(),
                            [](Weight b) { return b < 1; }),
             grid.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  BudgetSweepOptions sweep;
  sweep.graph = &graph;
  const std::vector<Weight> costs = EvaluateBudgets(belady_cost, grid, sweep);

  if (loaded.dwt()) {
    const ScheduleResult dp = DwtOptimalScheduler(*loaded.dwt()).Run(budget);
    std::cerr << "dwt-optimal: "
              << (dp.feasible ? "cost=" + std::to_string(dp.cost) + " bits"
                              : std::string("infeasible"))
              << "\n";
  }
  if (loaded.tree()) {
    const ScheduleResult dp = KaryTreeScheduler(graph).Run(budget);
    std::cerr << "kary-dp: "
              << (dp.feasible ? "cost=" + std::to_string(dp.cost) + " bits"
                              : std::string("infeasible"))
              << "\n";
  }

  const double deadline_ms = args.GetDouble("deadline-ms", 0);
  RobustOptions options;
  options.deadline_ms = deadline_ms;
  // The bb engine itself, so the search layer reports even when the chain
  // below answers before its exact stage. Bounded as that stage is: by
  // the deadline, or else by the graph's size.
  if (deadline_ms > 0 || graph.num_nodes() <= options.exact_max_nodes) {
    BruteForceOptions bf;
    bf.engine = SearchEngine::kBranchAndBound;
    CancelToken token;
    if (deadline_ms > 0) {
      token = CancelToken::WithDeadlineMs(deadline_ms);
      bf.cancel = &token;
    }
    const ScheduleResult bb = BruteForceScheduler(graph).Run(budget, bf);
    std::cerr << "bb: "
              << (bb.feasible ? "cost=" + std::to_string(bb.cost) +
                                    " lb=" + std::to_string(bb.lower_bound) +
                                    " gap=" +
                                    std::to_string(bb.optimality_gap) +
                                    " termination=" +
                                    ToString(bb.termination)
                              : std::string("infeasible"))
              << "\n";
  }
  const RobustResult robust = RobustScheduler(graph).Run(budget, options);
  std::cerr << "robust chain: "
            << (robust.result.feasible
                    ? "winner=" + robust.winner + " cost=" +
                          std::to_string(robust.result.cost) + " bits"
                    : std::string("infeasible"))
            << " (budget " << budget << ", min valid " << min_budget
            << ")\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::cerr << "sweep budget=" << grid[i] << ": belady "
              << (costs[i] >= kInfiniteCost
                      ? std::string("infeasible")
                      : "cost=" + std::to_string(costs[i]) + " bits")
              << "\n";
  }

  std::cout << obs::RenderReport();
  return robust.result.feasible ? 0 : 1;
}

// The `explore` verb: sweep the (red budget × SRAM word width) grid,
// price every point through the anytime solver + hardware models, and
// report the Pareto frontier (src/explore/, DESIGN.md §15).
int RunExplore(const CliArgs& args, const LoadedGraph& loaded) {
  ExploreOptions options;
  options.budget_lo = args.GetInt("budget-lo", 0);
  options.budget_hi = args.GetInt("budget-hi", 0);
  options.budget_step = args.GetInt("budget-step", 16);
  options.band_slack = args.GetInt("slack", 64);
  options.deadline_ms = args.GetDouble("deadline-ms", 0);
  const std::int64_t max_states = args.GetInt("max-states", 200'000);
  const std::string words = args.GetString("words", "8,16,32");
  const std::string scheduler_name = args.GetString("scheduler", "bb");
  const bool json = args.GetBool("json", false);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (options.budget_lo < 0 || options.budget_hi < 0 ||
      options.budget_step <= 0 || options.band_slack < 0 ||
      max_states <= 0) {
    std::cerr << "error: --budget-lo/--budget-hi/--slack must be >= 0 and "
                 "--budget-step/--max-states > 0\n";
    return 2;
  }
  options.max_states = static_cast<std::size_t>(max_states);
  const std::optional<ExploreScheduler> scheduler =
      ExploreSchedulerFromString(scheduler_name);
  if (!scheduler) {
    std::cerr << "error: unknown --scheduler '" << scheduler_name
              << "' (expected bb|robust)\n";
    return 2;
  }
  options.scheduler = *scheduler;
  options.word_bits.clear();
  std::istringstream word_stream(words);
  std::string token;
  while (std::getline(word_stream, token, ',')) {
    Weight width = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), width);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        width <= 0) {
      std::cerr << "error: --words expects comma-separated positive bit "
                   "widths, got '"
                << token << "'\n";
      return 2;
    }
    options.word_bits.push_back(width);
  }

  const ExploreResult result = Explore(loaded.graph(), options);
  if (!result.ok) {
    std::cerr << "error: " << result.error << "\n";
    return 1;
  }
  // Self-check the dominance pass with the independent verifier before
  // publishing — a tampered/buggy frontier never leaves the process.
  std::string verify_error;
  if (!VerifyFrontier(result.points, result.frontier, &verify_error)) {
    std::cerr << "internal error: frontier verification failed: "
              << verify_error << "\n";
    return 1;
  }
  if (json) {
    std::cout << ExploreToJson(args.positional()[1],
                               ToString(options.scheduler), result)
                     .Dump()
              << "\n";
  } else {
    std::cout << RenderExploreTable(result) << "\n"
              << RenderFrontierPlot(result);
  }
  if (result.frontier.empty()) {
    std::cerr << "no feasible design point (scanned "
              << result.budgets_scanned << " budgets, "
              << result.infeasible_budgets << " infeasible, "
              << result.invalid_points << " invalid points)\n";
    return 1;
  }
  return 0;
}

// The `serve` verb: a scheduling-as-a-service loop over a request stream
// (file or stdin), one `<graph> <budget> [<deadline-ms>]` per line. Every
// request flows through one shared ScheduleService, so repeated and
// isomorphic graphs hit the schedule cache and concurrent duplicates
// would share a single solve (ServeBatch); here requests arrive
// sequentially, so the cache is the star.
int RunServe(const CliArgs& args) {
  ServiceOptions options;
  const std::int64_t cache_mb = args.GetInt("cache-mb", 64);
  const std::int64_t shards = args.GetInt("shards", 16);
  options.default_deadline_ms = args.GetDouble("deadline-ms", 0);
  options.iso_hits = !args.GetBool("no-iso", false);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (cache_mb < 0 || shards < 1) {
    std::cerr << "error: --cache-mb must be >= 0 and --shards >= 1\n";
    return 2;
  }
  options.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  options.cache_shards = static_cast<std::size_t>(shards);

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.positional().size() >= 2 && args.positional()[1] != "-") {
    file.open(args.positional()[1]);
    if (!file) {
      std::cerr << "error: cannot open '" << args.positional()[1] << "'\n";
      return 1;
    }
    in = &file;
  }

  ScheduleService service(options);
  std::string line;
  std::size_t lineno = 0;
  std::size_t failures = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::vector<std::string> fields;
    std::string tok;
    while (tokens >> tok) fields.push_back(tok);
    if (fields.empty()) continue;

    Weight budget = 0;
    double deadline_ms = 0;
    bool parsed = fields.size() >= 2 && fields.size() <= 3;
    if (parsed) {
      const std::string& b = fields[1];
      const auto [ptr, ec] = std::from_chars(b.data(), b.data() + b.size(),
                                             budget);
      parsed = ec == std::errc() && ptr == b.data() + b.size();
    }
    if (parsed && fields.size() == 3) {
      const std::string& d = fields[2];
      char* end = nullptr;
      deadline_ms = std::strtod(d.c_str(), &end);
      parsed = end == d.c_str() + d.size();
    }
    if (!parsed) {
      std::cout << "req " << lineno
                << " error: expected '<graph> <budget> [<deadline-ms>]'\n";
      ++failures;
      continue;
    }

    const LoadedGraph loaded = LoadGraphArg(fields[0]);
    if (!loaded.ok) {
      // LoadGraphArg already printed the detail on stderr.
      std::cout << "req " << lineno << " " << fields[0]
                << " error: cannot load graph\n";
      ++failures;
      continue;
    }
    ServiceRequest request;
    request.graph = &loaded.graph();
    request.budget = budget;
    request.deadline_ms = deadline_ms;
    const ServiceResponse response = service.Serve(request);
    if (!response.ok) {
      std::cout << "req " << lineno << " " << fields[0] << " budget="
                << budget << " source=" << ToString(response.source)
                << " error: " << response.error << "\n";
      ++failures;
      continue;
    }
    std::cout << "req " << lineno << " " << fields[0]
              << " budget=" << budget
              << " source=" << ToString(response.source)
              << " cost=" << response.result.cost
              << " lb=" << response.result.lower_bound
              << " gap=" << response.result.optimality_gap
              << " termination=" << ToString(response.result.termination)
              << " winner=" << response.winner
              << " latency_ms=" << response.latency_ms << "\n";
  }

  const ServiceStats stats = service.stats();
  std::cerr << "serve: requests=" << stats.requests
            << " hits=" << stats.cache_hits
            << " iso_hits=" << stats.iso_hits
            << " key_memo_hits=" << stats.key_memo_hits
            << " misses=" << stats.misses
            << " dedup=" << stats.dedup_shared
            << " solves=" << stats.solves
            << " cache_entries=" << stats.cache_entries
            << " cache_bytes=" << stats.cache_bytes
            << " evictions=" << stats.cache_evictions << "\n";
  return failures > 0 ? 1 : 0;
}

// Runs the selected verb; main() handles the --metrics-json dump so every
// exit path below is covered by one snapshot.
int RunVerb(const CliArgs& args) {
  if (args.positional().empty()) return Usage();
  const std::string& command = args.positional()[0];

  // Per-verb flag ownership and positional count: a flag passed to the
  // wrong verb is rejected with an error naming the verb that accepts it,
  // and a stray positional with an error naming it (util/cli.h).
  static const std::vector<VerbFlags> kVerbFlags = {
      {"info", {}, 1, 1},
      {"dot", {}, 1, 1},
      {"analyze", {"budget", "json"}, 1, 1},
      {"explore",
       {"budget-lo", "budget-hi", "budget-step", "slack", "words",
        "scheduler", "deadline-ms", "max-states", "json"},
       1, 1},
      {"lint", {"budget", "json", "fix"}, 1, 2},
      {"schedule",
       {"budget", "algo", "engine", "deadline-ms", "memory-cap-mb",
        "orbit-prune"},
       1, 1},
      {"validate", {"budget"}, 2, 2},
      {"repair", {"budget"}, 2, 2},
      {"trace", {"budget"}, 2, 2},
      {"profile", {"budget", "deadline-ms"}, 1, 1},
      {"serve", {"cache-mb", "shards", "no-iso", "deadline-ms"}, 0, 1},
      {"convert", {"out", "format"}, 1, 1},
  };
  static const std::vector<std::string> kGlobalFlags = {"threads",
                                                        "metrics-json",
                                                        "help"};
  const bool known_verb =
      std::any_of(kVerbFlags.begin(), kVerbFlags.end(),
                  [&](const VerbFlags& v) { return v.verb == command; });
  if (!known_verb) return Usage();
  if (!args.CheckVerbFlags(command, kVerbFlags, kGlobalFlags) ||
      !args.CheckVerbArity(command, kVerbFlags)) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  if (command == "serve") return RunServe(args);

  const LoadedGraph loaded = LoadGraphArg(args.positional()[1]);
  if (!loaded.ok) return 1;
  const Graph& graph = loaded.graph();

  if (command == "info") {
    std::cout << "nodes:            " << graph.num_nodes() << "\n"
              << "edges:            " << graph.num_edges() << "\n"
              << "sources:          " << graph.sources().size() << "\n"
              << "sinks:            " << graph.sinks().size() << "\n"
              << "total weight:     " << graph.total_weight() << " bits\n"
              << "min valid budget: " << MinValidBudget(graph)
              << " bits (Prop 2.3)\n"
              << "algorithmic LB:   " << AlgorithmicLowerBound(graph)
              << " bits of I/O (Prop 2.4)\n";
    return 0;
  }
  if (command == "dot") {
    std::cout << ToDot(graph, args.positional()[1]);
    return 0;
  }

  if (command == "convert") {
    const std::string format = args.GetString("format", "bin");
    const std::string out_path = args.GetString("out", "");
    if (format != "bin" && format != "text") {
      std::cerr << "error: unknown --format '" << format
                << "' (expected bin|text)\n";
      return 2;
    }
    const std::string payload =
        format == "bin" ? ToBinary(graph) : ToText(graph);
    if (out_path.empty()) {
      std::cout.write(payload.data(),
                      static_cast<std::streamsize>(payload.size()));
      return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out.write(payload.data(),
                   static_cast<std::streamsize>(payload.size()))) {
      std::cerr << "error: cannot write '" << out_path << "'\n";
      return 1;
    }
    return 0;
  }

  if (command == "explore") {
    return RunExplore(args, loaded);
  }

  if (command == "analyze") {
    const bool json = args.GetBool("json", false);
    AnalysisOptions options;
    options.budget = args.GetInt("budget", 0);  // <= 0: MinValidBudget
    if (!args.error().empty()) {
      std::cerr << "error: " << args.error() << "\n";
      return 2;
    }
    const GraphAnalysis analysis = AnalyzeGraph(graph, options);
    std::cout << (json ? GraphAnalysisToJson(analysis)
                       : RenderGraphAnalysis(analysis));
    return 0;
  }

  if (command == "lint") {
    const bool json = args.GetBool("json", false);
    const bool fix = args.GetBool("fix", false);
    if (args.positional().size() < 3) {
      // Graph-only mode: structural rules, no schedule or budget needed.
      LintResult result;
      result.diagnostics = LintGraph(graph);
      std::cout << (json ? LintResultToJson(result)
                         : RenderLintResult(result));
      return 0;
    }
    const Weight lint_budget = args.GetInt("budget", 0);
    if (!args.error().empty()) {
      std::cerr << "error: " << args.error() << "\n";
      return 2;
    }
    if (lint_budget <= 0) {
      std::cerr << "error: --budget <bits> is required to lint a schedule\n";
      return 2;
    }
    const ScheduleParseResult sched = LoadScheduleArg(args.positional()[2]);
    if (!sched.ok) {
      std::cerr << "error: " << args.positional()[2] << ": " << sched.error
                << "\n";
      return 1;
    }
    const LintResult result = LintSchedule(graph, lint_budget, sched.schedule);
    if (fix) {
      std::cerr << RenderLintResult(result);
      if (result.has_errors()) {
        std::cerr << "cannot fix: schedule has errors; run repair first\n";
        return 1;
      }
      const LintFixResult fixed =
          ApplyLintFixes(graph, lint_budget, sched.schedule);
      if (!fixed.ok) {
        std::cerr << "fix failed: " << fixed.message << "\n";
        return 1;
      }
      std::cout << ToText(fixed.schedule);
      std::cerr << "applied " << fixed.fixes_applied << " fix(es) over "
                << fixed.iterations << " iteration(s): cost "
                << fixed.cost_before << " -> " << fixed.cost_after
                << " bits\n";
      return 0;
    }
    std::cout << (json ? LintResultToJson(result) : RenderLintResult(result));
    return result.has_errors() ? 1 : 0;
  }

  const Weight budget = args.GetInt("budget", 0);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }
  if (command == "profile") {
    // profile defaults its budget; every other verb requires one.
    return RunProfile(args, loaded, budget);
  }
  if (budget <= 0) {
    std::cerr << "error: --budget <bits> is required\n";
    return 2;
  }

  if (command == "schedule") {
    const double deadline_ms = args.GetDouble("deadline-ms", 0);
    const std::string engine_name = args.GetString("engine", "");
    const Weight memory_cap_mb = args.GetInt("memory-cap-mb", 0);
    std::string algo = args.GetString("algo", "belady");
    // --deadline-ms alone selects the robust chain; with --engine it
    // instead bounds the named engine directly (the anytime path).
    if (deadline_ms > 0 && engine_name.empty()) algo = "robust";
    if (!args.error().empty()) {
      std::cerr << "error: " << args.error() << "\n";
      return 2;
    }
    if (!engine_name.empty()) {
      BruteForceOptions bf;
      if (engine_name == "dijkstra") {
        bf.engine = SearchEngine::kDijkstra;
      } else if (engine_name == "astar") {
        bf.engine = SearchEngine::kAStar;
      } else if (engine_name == "bb") {
        bf.engine = SearchEngine::kBranchAndBound;
      } else {
        std::cerr << "error: unknown --engine '" << engine_name
                  << "' (expected dijkstra|astar|bb)\n";
        return 2;
      }
      if (memory_cap_mb > 0) {
        bf.frontier_bytes_cap =
            static_cast<std::size_t>(memory_cap_mb) << 20;
      }
      // Certified root bound: free to compute, only tightens the REPORTED
      // gap of an interrupted run (brute_force.h) — completed runs and
      // their schedules are untouched.
      bf.root_lower_bound = BestCertifiedBound(graph, budget);
      std::vector<NodeId> pruned_sources;
      if (args.GetBool("orbit-prune", false)) {
        // Skip the root load of every source whose verified orbit has a
        // smaller-id source; the representative's load stays, so the
        // canonical optimal schedule survives (bit-identity contract).
        const OrbitPartition orbits = ComputeOrbits(graph);
        for (const NodeId s : graph.sources()) {
          if (orbits.orbit_of[s] != s) pruned_sources.push_back(s);
        }
        bf.prune_root_loads = &pruned_sources;
        std::cerr << "orbit-prune: skipping " << pruned_sources.size()
                  << " of " << graph.sources().size()
                  << " root loads (" << orbits.num_orbits << " orbits)\n";
      }
      CancelToken token;
      if (deadline_ms > 0) {
        token = CancelToken::WithDeadlineMs(deadline_ms);
        bf.cancel = &token;
      }
      const ScheduleResult result =
          BruteForceScheduler(graph).Run(budget, bf);
      if (result.timed_out) {
        // Only the exact engines end here; bb would have returned its
        // incumbent. The frontier lower bound is still certified.
        std::cerr << "timed out with no schedule (engine '" << engine_name
                  << "' holds no incumbent; use --engine bb), lb="
                  << result.lower_bound << " bits\n";
        return 1;
      }
      if (!result.feasible) {
        std::cerr << "infeasible: no schedule under " << budget
                  << " bits (need >= " << MinValidBudget(graph) << ")\n";
        return 1;
      }
      const SimResult sim = Simulate(graph, budget, result.schedule);
      if (!sim.valid) {
        std::cerr << "internal error: generated schedule invalid: "
                  << sim.error << "\n";
        return 1;
      }
      std::cout << ToText(result.schedule);
      std::cerr << "engine=" << engine_name
                << " moves=" << result.schedule.size()
                << " cost=" << sim.cost << " bits, lb="
                << result.lower_bound << " gap=" << result.optimality_gap
                << " termination=" << ToString(result.termination)
                << ", peak=" << sim.peak_red_weight << "/" << budget
                << " bits\n";
      return 0;
    }
    if (algo == "robust") {
      RobustOptions options;
      options.deadline_ms = deadline_ms;
      const RobustResult robust =
          RobustScheduler(graph).Run(budget, options);
      for (const StageReport& stage : robust.stages) {
        std::cerr << "stage " << stage.name << ": "
                  << ToString(stage.outcome);
        if (stage.cost < kInfiniteCost) {
          std::cerr << " cost=" << stage.cost << " bits";
        }
        if (stage.outcome != StageOutcome::kNotRun &&
            stage.outcome != StageOutcome::kSkipped) {
          std::cerr << " elapsed=" << stage.elapsed_ms << " ms";
        }
        if (!stage.detail.empty()) std::cerr << " (" << stage.detail << ")";
        std::cerr << "\n";
      }
      if (!robust.result.feasible) {
        std::cerr << "infeasible: no stage produced a valid schedule under "
                  << budget << " bits (need >= " << MinValidBudget(graph)
                  << ")\n";
        return 1;
      }
      std::cout << ToText(robust.result.schedule);
      std::cerr << "winner=" << robust.winner
                << " moves=" << robust.result.schedule.size()
                << " cost=" << robust.result.cost << " bits, lb="
                << robust.result.lower_bound << " gap="
                << robust.result.optimality_gap << " termination="
                << ToString(robust.result.termination) << "\n";
      return 0;
    }
    ScheduleResult result;
    if (algo == "greedy") {
      result = GreedyTopoScheduler(graph).Run(budget);
    } else if (algo == "belady") {
      result = BeladyScheduler(graph).Run(budget);
    } else if (algo == "brute") {
      // No node-count guard: the wide-state engines run at any size, and
      // an unbounded run is stopped by max_states/frontier_bytes_cap —
      // add --deadline-ms (or --engine bb) to bound it by wall clock.
      result = BruteForceScheduler(graph).Run(budget);
    } else {
      std::cerr << "error: unknown --algo '" << algo << "'\n";
      return 2;
    }
    if (!result.feasible) {
      std::cerr << "infeasible: no schedule under " << budget
                << " bits (need >= " << MinValidBudget(graph) << ")\n";
      return 1;
    }
    const SimResult sim = Simulate(graph, budget, result.schedule);
    if (!sim.valid) {
      std::cerr << "internal error: generated schedule invalid: " << sim.error
                << "\n";
      return 1;
    }
    std::cout << ToText(result.schedule);
    std::cerr << "algo=" << algo << " moves=" << result.schedule.size()
              << " cost=" << sim.cost << " bits, peak=" << sim.peak_red_weight
              << "/" << budget << " bits, lb="
              << AlgorithmicLowerBound(graph) << " bits\n";
    return 0;
  }

  if (command == "trace") {
    const ScheduleParseResult sched = LoadScheduleArg(args.positional()[2]);
    if (!sched.ok) {
      std::cerr << "error: " << args.positional()[2] << ": " << sched.error
                << "\n";
      return 1;
    }
    const OccupancyTrace trace = TraceOccupancy(graph, budget, sched.schedule);
    if (!trace.ok) {
      std::cerr << "INVALID schedule: " << trace.error << "\n";
      return 1;
    }
    std::cout << RenderOccupancy(trace, budget);
    return 0;
  }

  if (command == "repair") {
    const ScheduleParseResult sched = LoadScheduleArg(args.positional()[2]);
    if (!sched.ok) {
      std::cerr << "error: " << args.positional()[2] << ": " << sched.error
                << "\n";
      return 1;
    }
    const RepairResult repair = RepairSchedule(graph, budget, sched.schedule);
    if (repair.status == RepairStatus::kIrreparable) {
      std::cerr << "irreparable: " << ToString(repair.code) << " (v"
                << repair.node << " at input move " << repair.input_index
                << "): " << repair.message << "\n";
      return 1;
    }
    std::cout << ToText(repair.schedule);
    std::cerr << ToString(repair.status) << ": cost="
              << repair.verification.cost << " bits, peak="
              << repair.verification.peak_red_weight << "/" << budget
              << " bits, kept=" << repair.moves_kept << ", dropped="
              << repair.moves_dropped << ", inserted="
              << repair.moves_inserted << "\n";
    return 0;
  }

  if (command == "validate") {
    const ScheduleParseResult sched = LoadScheduleArg(args.positional()[2]);
    if (!sched.ok) {
      std::cerr << "error: " << args.positional()[2] << ": " << sched.error
                << "\n";
      return 1;
    }
    const SimResult sim = Simulate(graph, budget, sched.schedule);
    if (!sim.valid) {
      std::cerr << "INVALID at move " << sim.error_index + 1 << " ["
                << ToString(sim.code) << "]: " << sim.error << "\n";
      return 1;
    }
    std::cout << "valid: cost=" << sim.cost
              << " bits, peak=" << sim.peak_red_weight << " bits, loads="
              << sim.loads << ", stores=" << sim.stores << ", computes="
              << sim.computes << ", deletes=" << sim.deletes << "\n";
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.GetBool("help", false)) return PrintHelp();
  args.ApplyThreadsFlag();
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  const int status = RunVerb(args);

  // One dump point after the verb, so every exit path (including error
  // paths) still produces the artifact when requested.
  const std::string metrics_path = args.GetString("metrics-json", "");
  if (!metrics_path.empty()) {
    const std::string tool =
        args.positional().empty() ? "wrbpg_cli" : args.positional()[0];
    obs::Json doc = obs::ObsDocument(tool);
    doc.Set("exit_status", status);
    std::string error;
    if (!obs::WriteJsonFile(metrics_path, doc, &error)) {
      std::cerr << "error: --metrics-json: " << error << "\n";
      return status != 0 ? status : 1;
    }
  }
  return status;
}
