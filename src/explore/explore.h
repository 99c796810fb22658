// Pre-synthesis hardware design-space explorer (DESIGN.md §15).
//
// The Figs 7-8 reproduction prices a GIVEN SRAM configuration; this module
// searches the joint (red budget × SRAM geometry × scheduler) space — the
// codesign loop that turns the reproduction into a memory-design tool, in
// the style of the Lina pre-HLS estimator: analytic models stand in for
// synthesis so thousands of candidate designs are priced in seconds and
// only the Pareto frontier graduates to real EDA runs.
//
// The grid is budgets × word widths:
//
//   budgets      a band [lo, hi] scanned at `budget_step`, defaulting to
//                [MinValidBudget, derived min-memory + slack] via the
//                core/analysis machinery (Prop 2.3 floors the band; the
//                Definition 2.6 minimum-memory scan with a Belady prober
//                caps it — past the budget where a heuristic already
//                achieves the Prop 2.4 lower bound, more SRAM only costs
//                area and leakage).
//   word widths  each budget's power-of-two macro capacity is organized
//                at every requested word width (word-width multiples are
//                a synthesis precondition; rejected combinations are
//                skipped-and-counted, never fatal — see TrySynthesizeSram).
//
// Budgets are solved in ascending order up to the knee: the first budget
// whose solved cost equals the Prop 2.4 bound (AlgorithmicLowerBound).
// Optimal I/O never rises with the budget and never drops below that
// bound, so every larger budget has the same optimum with the same forced
// load/store split; its row is a copy of the knee's row, certified rather
// than searched (counted in ExploreResult::budgets_certified).
//
// Each point composes schedule I/O cost -> TrySynthesizeSram ->
// EstimateScheduleEnergy into (area_λ², leakage_mW, energy_nJ, io_cost)
// plus the ANYTIME certificate: exact points are intractable in general
// (the game is PSPACE-hard), so every point is solved by the bb engine (or
// the robust chain) or certified from the knee, and carries cost, lower
// bound, and certified optimality gap — a point is trustworthy when its
// gap is zero and honestly uncertain otherwise, never silently wrong.
// Every searched schedule is replayed through the simulator before it is
// priced.
//
// Determinism contract (DESIGN.md §8): workers take budgets from one
// shared ascending index and each writes only its own row; every budget
// up to the knee is searched to completion at any thread count, a search
// a worker started above the knee is cancelled once the knee is known,
// and every row above it becomes a copy of the knee's row whether or not
// a worker raced past the knee and searched it. Points are derived from the rows in fixed grid
// order (budget-major, word-width-minor) and the dominance pass is a pure
// fold. With the default deadline_ms == 0 the result is bit-identical at
// any thread count (pinned at 1/2/8 threads by explore_test); a nonzero
// per-point deadline trades that for bounded latency, the same trade the
// robust chain documents.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "core/types.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

// Which engine prices a budget. Both honor the anytime contract; they
// differ in what bounds the work per point.
enum class ExploreScheduler : std::uint8_t {
  // Branch-and-bound run to its state/byte caps: deterministic at any
  // thread count (no wall clock involved), certified gap on interruption.
  kBranchAndBound = 0,
  // Full robust chain (recognition -> exact -> heuristics) under a
  // per-point deadline slice: bounded latency on any graph, but which
  // stage answers is wall-clock-dependent when deadline_ms > 0.
  kRobustChain,
};

// "bb" / "robust" — the CLI --scheduler vocabulary.
const char* ToString(ExploreScheduler scheduler);
std::optional<ExploreScheduler> ExploreSchedulerFromString(
    std::string_view name);

struct ExploreOptions {
  // Red-budget band [budget_lo, budget_hi] scanned at budget_step.
  // budget_lo == 0 derives the floor from MinValidBudget (Prop 2.3:
  // nothing below it schedules at all); budget_hi == 0 derives the cap
  // from the Definition 2.6 minimum-memory scan (Belady prober) plus
  // `band_slack`.
  Weight budget_lo = 0;
  Weight budget_hi = 0;
  Weight budget_step = 16;  // the paper reports budgets in 16-bit words
  Weight band_slack = 64;   // extra band above the derived min-memory
  // SRAM word widths (bits) to organize each capacity at. Combinations
  // where the power-of-two capacity is not a word multiple (or the width
  // is malformed) are skipped-and-counted via TrySynthesizeSram's typed
  // rejection.
  std::vector<Weight> word_bits = {8, 16, 32};
  ExploreScheduler scheduler = ExploreScheduler::kBranchAndBound;
  // Per-point deadline slice for the robust chain; 0 = none. Ignored by
  // the bb engine, whose work is bounded by max_states instead (keeping
  // the default grid bit-identical across thread counts).
  double deadline_ms = 0;
  // State safety valve per bb solve (see BruteForceOptions::max_states).
  // Deliberately far below the engine's default: a sweep searches every
  // budget up to the knee, and the tight-budget points at the bottom of
  // the band explode combinatorially — the anytime contract turns the cap
  // into a certified gap instead of a hang.
  std::size_t max_states = 200'000;
  // Execution-window stretch for the energy model (1.0 = memory-bound).
  double duty_cycle = 1.0;
  // Worker threads for the per-budget solves; 0 = DefaultSearchThreads().
  std::size_t threads = 0;
  // Polled between budget solves; a fired token aborts the exploration
  // with ok == false rather than returning a partial frontier.
  const CancelToken* cancel = nullptr;
};

// One priced design point. The dominance objectives are the four costs
// (area, leakage, energy, io_cost), all minimized; the certificate fields
// qualify how exact io_cost is.
struct ExplorePoint {
  Weight budget = 0;         // red budget solved at (bits)
  Weight capacity_bits = 0;  // PowerOfTwoCapacity(budget) — the macro built
  Weight word_bits = 0;

  // Anytime certificate for the schedule backing this point:
  // lower_bound <= optimal io_cost <= io_cost, gap == io_cost - lower_bound
  // (0 == proven optimal), termination records why the solver stopped.
  Weight io_cost = 0;
  Weight lower_bound = 0;
  Weight gap = 0;
  Termination termination = Termination::kComplete;

  Weight bits_loaded = 0;  // M1 traffic of the schedule (bits)
  Weight bits_stored = 0;  // M2 traffic (bits)

  double area_lambda2 = 0;
  double leakage_mw = 0;
  double energy_nj = 0;

  bool on_frontier = false;
};

struct ExploreResult {
  bool ok = false;
  std::string error;  // why exploration failed; empty when ok

  // The band actually scanned (after derivation).
  Weight budget_lo = 0;
  Weight budget_hi = 0;
  Weight budget_step = 0;

  std::size_t budgets_scanned = 0;
  // Budgets above the first one whose optimum meets the Prop 2.4 bound:
  // their rows copy that row instead of a search (DESIGN.md §15.1).
  std::size_t budgets_certified = 0;
  std::size_t infeasible_budgets = 0;  // no valid schedule (Prop 2.3)
  std::size_t invalid_points = 0;      // SRAM synthesis rejections skipped

  // Grid order: budget-major, word-width-minor — the determinism anchor.
  std::vector<ExplorePoint> points;
  // Ascending indices into `points` of the Pareto-optimal designs.
  std::vector<std::size_t> frontier;
  std::size_t dominated = 0;  // points.size() - frontier.size()
};

// True when `a` is no worse than `b` on every objective (area, leakage,
// energy, io_cost) and strictly better on at least one.
bool Dominates(const ExplorePoint& a, const ExplorePoint& b);

// Ascending indices of the non-dominated points (pure fold; O(n²)).
std::vector<std::size_t> ParetoFrontier(const std::vector<ExplorePoint>& points);

// Independent re-derivation of the dominance pass: recomputes the frontier
// from `points` alone and checks the claimed indices and on_frontier flags
// match. Rejects tampered results (a dominated point smuggled onto the
// frontier, an optimal point dropped) with a one-line reason.
bool VerifyFrontier(const std::vector<ExplorePoint>& points,
                    const std::vector<std::size_t>& frontier,
                    std::string* error = nullptr);

// FNV-1a over the frontier points' exact field bytes (doubles by bit
// pattern) — the bit-identity check bench_explore and the determinism
// tests compare across thread counts.
std::uint64_t FrontierHash(const ExploreResult& result);

// Prices the whole grid and runs the dominance pass. Never aborts:
// malformed options and a fired cancel token come back ok == false, as
// does a searched schedule the simulator rejects or prices differently
// from the solver (the error names the budget); malformed grid points are
// skipped-and-counted.
ExploreResult Explore(const Graph& graph, const ExploreOptions& options = {});

}  // namespace wrbpg
