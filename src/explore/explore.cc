#include "explore/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/simulator.h"
#include "ganalysis/bounds.h"
#include "hardware/energy_model.h"
#include "hardware/sram_model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "robust/robust_scheduler.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

// Everything the pricing pass needs from one budget's solve. Rows are
// written by index from pool tasks and folded in index order, so the
// result is independent of which worker solved which budget.
struct SolveRow {
  bool feasible = false;
  Weight cost = kInfiniteCost;
  Weight lower_bound = 0;
  Weight gap = kInfiniteCost;
  Termination termination = Termination::kComplete;
  Weight bits_loaded = 0;
  Weight bits_stored = 0;
  bool searched = false;
  double elapsed_ms = 0;
  std::string error;  // the simulator disagreed with the solver
};

SolveRow SolveBudget(const Graph& graph, Weight budget,
                     const ExploreOptions& options, const CancelToken& stop) {
  const auto start = std::chrono::steady_clock::now();
  ScheduleResult result;
  if (options.scheduler == ExploreScheduler::kBranchAndBound) {
    BruteForceOptions bf;
    bf.engine = SearchEngine::kBranchAndBound;
    bf.max_states = options.max_states;
    // Grid parallelism lives at the budget level; each solve stays
    // sequential so N outer workers never oversubscribe the machine.
    bf.threads = 1;
    bf.root_lower_bound = BestCertifiedBound(graph, budget);
    bf.cancel = &stop;
    result = BruteForceScheduler(graph).Run(budget, bf);
  } else {
    RobustOptions ro;
    ro.deadline_ms = options.deadline_ms;
    ro.threads = 1;
    result = RobustScheduler(graph).Run(budget, ro).result;
  }

  SolveRow row;
  row.searched = true;
  row.feasible = result.feasible;
  if (result.feasible) {
    // Price only what the simulator accepts: a certified row stands for
    // every larger budget, so its traffic split must be a replayed fact.
    const SimResult sim = Simulate(graph, budget, result.schedule);
    const std::string at = "budget " + std::to_string(budget) + ": ";
    if (!sim.valid) {
      row.error = at + "the simulator rejected the schedule at move " +
                  std::to_string(sim.error_index) + ": " + sim.error;
    } else if (sim.cost != result.cost) {
      row.error = at + "the simulator priced the schedule at " +
                  std::to_string(sim.cost) + " bits, the solver at " +
                  std::to_string(result.cost);
    }
    row.cost = result.cost;
    row.lower_bound = result.lower_bound;
    row.gap = result.optimality_gap;
    row.termination = result.termination;
    for (const Move& move : result.schedule) {
      if (move.type == MoveType::kLoad) {
        row.bits_loaded += graph.weight(move.node);
      } else if (move.type == MoveType::kStore) {
        row.bits_stored += graph.weight(move.node);
      }
    }
  }
  row.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return row;
}

// Solves budgets in ascending order from one shared index and stops past
// the knee: once a row costs `bound` (the Prop 2.4 bound), every larger
// budget has that optimum with the same load/store split (DESIGN.md
// §15.2), so a worker skips any index above the smallest at-bound one
// seen, and a bb search of such an index still running is cancelled. Every
// index up to the final knee is searched to completion at any thread
// count; returns the knee (rows.size() when no row meets the bound).
std::size_t SolveBand(const Graph& graph, const std::vector<Weight>& budgets,
                      Weight bound, const ExploreOptions& options,
                      std::vector<SolveRow>& rows) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> knee{budgets.size()};
  // One stop token per budget, each also fired by the caller's token.
  std::vector<CancelToken> stops;
  stops.reserve(budgets.size());
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    stops.emplace_back(options.cancel);
  }
  auto work = [&] {
    for (;;) {
      if (options.cancel != nullptr && options.cancel->cancelled()) return;
      const std::size_t i = next.fetch_add(1);
      // Indices come out ascending and the knee only falls, so nothing
      // this worker could take later is at or below the knee either.
      if (i >= budgets.size() || i > knee.load()) return;
      rows[i] = SolveBudget(graph, budgets[i], options, stops[i]);
      if (!rows[i].feasible || !rows[i].error.empty() ||
          rows[i].cost != bound) {
        continue;
      }
      std::size_t seen = knee.load();
      while (i < seen && !knee.compare_exchange_weak(seen, i)) {
      }
      // Rows above the old knee were stopped when it fell there.
      for (std::size_t j = i + 1; j < seen; ++j) stops[j].Cancel();
    }
  };
  const std::size_t workers =
      std::min(ResolveThreadCount(options.threads), budgets.size());
  if (workers <= 1) {
    work();
  } else {
    ThreadPool pool(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.Submit(work);
    pool.Wait();
  }
  return knee.load();
}

// Derived band cap: the smallest scanned budget where the Belady heuristic
// already achieves the Prop 2.4 lower bound — past it, more fast memory
// cannot reduce I/O, only add area and leakage — plus the caller's slack.
Weight DeriveBandCap(const Graph& graph, Weight lo,
                     const ExploreOptions& options) {
  BeladyScheduler belady(graph);
  MinMemoryOptions mm;
  mm.lo = lo;
  mm.hi = graph.total_weight();
  mm.step = options.budget_step;
  mm.monotone = false;  // heuristic costs need not be monotone
  mm.cancel = options.cancel;
  mm.graph = &graph;
  const std::optional<Weight> min_memory = FindMinimumFastMemory(
      [&belady](Weight budget) { return belady.CostOnly(budget); },
      AlgorithmicLowerBound(graph), mm);
  // total_weight always achieves the bound, so nullopt only happens on a
  // degenerate scan band or cancellation; the fallback keeps the band sane.
  const Weight cap = min_memory.value_or(graph.total_weight());
  return cap + options.band_slack;
}

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

const char* ToString(ExploreScheduler scheduler) {
  switch (scheduler) {
    case ExploreScheduler::kBranchAndBound: return "bb";
    case ExploreScheduler::kRobustChain: return "robust";
  }
  return "unknown";
}

std::optional<ExploreScheduler> ExploreSchedulerFromString(
    std::string_view name) {
  if (name == "bb") return ExploreScheduler::kBranchAndBound;
  if (name == "robust") return ExploreScheduler::kRobustChain;
  return std::nullopt;
}

bool Dominates(const ExplorePoint& a, const ExplorePoint& b) {
  if (a.area_lambda2 > b.area_lambda2 || a.leakage_mw > b.leakage_mw ||
      a.energy_nj > b.energy_nj || a.io_cost > b.io_cost) {
    return false;
  }
  return a.area_lambda2 < b.area_lambda2 || a.leakage_mw < b.leakage_mw ||
         a.energy_nj < b.energy_nj || a.io_cost < b.io_cost;
}

std::vector<std::size_t> ParetoFrontier(
    const std::vector<ExplorePoint>& points) {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j != i && Dominates(points[j], points[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

bool VerifyFrontier(const std::vector<ExplorePoint>& points,
                    const std::vector<std::size_t>& frontier,
                    std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  for (std::size_t k = 0; k < frontier.size(); ++k) {
    if (frontier[k] >= points.size()) {
      return fail("frontier index " + std::to_string(frontier[k]) +
                  " out of range");
    }
    if (k > 0 && frontier[k] <= frontier[k - 1]) {
      return fail("frontier indices not strictly ascending at position " +
                  std::to_string(k));
    }
  }
  const std::vector<std::size_t> recomputed = ParetoFrontier(points);
  if (recomputed != frontier) {
    // Name one witness so the rejection is actionable.
    for (std::size_t idx : frontier) {
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (j != idx && Dominates(points[j], points[idx])) {
          return fail("claimed frontier point " + std::to_string(idx) +
                      " is dominated by point " + std::to_string(j));
        }
      }
    }
    return fail("claimed frontier omits a non-dominated point");
  }
  std::size_t next = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool claimed = next < frontier.size() && frontier[next] == i;
    if (claimed) ++next;
    if (points[i].on_frontier != claimed) {
      return fail("on_frontier flag of point " + std::to_string(i) +
                  " disagrees with the frontier indices");
    }
  }
  return true;
}

std::uint64_t FrontierHash(const ExploreResult& result) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (std::size_t idx : result.frontier) {
    const ExplorePoint& p = result.points[idx];
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.budget));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.capacity_bits));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.word_bits));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.io_cost));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.lower_bound));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.gap));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.bits_loaded));
    hash = Fnv1a(hash, static_cast<std::uint64_t>(p.bits_stored));
    hash = Fnv1a(hash, std::bit_cast<std::uint64_t>(p.area_lambda2));
    hash = Fnv1a(hash, std::bit_cast<std::uint64_t>(p.leakage_mw));
    hash = Fnv1a(hash, std::bit_cast<std::uint64_t>(p.energy_nj));
  }
  return hash;
}

ExploreResult Explore(const Graph& graph, const ExploreOptions& options) {
  static const obs::Counter budgets_counter("explore.budgets");
  static const obs::Counter points_counter("explore.points");
  static const obs::Counter invalid_counter("explore.invalid_points");
  static const obs::Counter infeasible_counter("explore.infeasible_budgets");
  static const obs::Counter certified_counter("explore.budgets_certified");
  static const obs::Gauge frontier_gauge("explore.frontier_size");
  obs::ScopedSpan span("explore");

  ExploreResult result;
  if (graph.num_nodes() == 0) {
    result.error = "graph is empty";
    return result;
  }
  if (options.budget_step <= 0) {
    result.error = "budget_step must be positive";
    return result;
  }
  if (options.word_bits.empty()) {
    result.error = "word_bits must name at least one width";
    return result;
  }

  {
    obs::ScopedSpan band_span("explore.derive-band");
    result.budget_lo =
        options.budget_lo > 0 ? options.budget_lo : MinValidBudget(graph);
    result.budget_hi = options.budget_hi > 0
                           ? options.budget_hi
                           : DeriveBandCap(graph, result.budget_lo, options);
    result.budget_step = options.budget_step;
  }
  if (result.budget_hi < result.budget_lo) {
    result.error = "budget band is empty: hi " +
                   std::to_string(result.budget_hi) + " < lo " +
                   std::to_string(result.budget_lo);
    return result;
  }
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    result.error = "cancelled";
    return result;
  }

  std::vector<Weight> budgets;
  for (Weight b = result.budget_lo; b <= result.budget_hi;
       b += result.budget_step) {
    budgets.push_back(b);
  }
  result.budgets_scanned = budgets.size();
  budgets_counter.Add(budgets.size());

  std::vector<SolveRow> rows(budgets.size());
  const std::size_t knee = SolveBand(
      graph, budgets, AlgorithmicLowerBound(graph), options, rows);
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    result.error = "cancelled";
    return result;
  }
  for (const SolveRow& row : rows) {
    if (row.searched) obs::RecordSpan("explore.solve", row.elapsed_ms);
  }
  // Rows up to the knee were all searched; the first one the simulator
  // disputes fails the sweep, whichever worker found it.
  for (std::size_t i = 0; i <= knee && i < rows.size(); ++i) {
    if (!rows[i].error.empty()) {
      result.error = rows[i].error;
      return result;
    }
  }
  // Every row above the knee is a copy of the knee's row, searched or not,
  // so the result does not depend on how far workers raced past it.
  for (std::size_t i = knee + 1; i < rows.size(); ++i) rows[i] = rows[knee];
  if (knee < rows.size()) result.budgets_certified = rows.size() - knee - 1;
  certified_counter.Add(result.budgets_certified);

  // Price the grid in fixed budget-major, word-width-minor order.
  {
    obs::ScopedSpan price_span("explore.price");
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      const SolveRow& row = rows[i];
      if (!row.feasible) {
        ++result.infeasible_budgets;
        infeasible_counter.Add();
        continue;
      }
      const Weight capacity = PowerOfTwoCapacity(budgets[i]);
      for (Weight word : options.word_bits) {
        const SramSynthesisResult synth = TrySynthesizeSram(capacity, word);
        if (!synth.ok()) {
          ++result.invalid_points;
          invalid_counter.Add();
          continue;
        }
        const EnergyReport energy = EstimateScheduleEnergy(
            synth.macro, row.bits_loaded, row.bits_stored,
            options.duty_cycle);
        ExplorePoint point;
        point.budget = budgets[i];
        point.capacity_bits = capacity;
        point.word_bits = word;
        point.io_cost = row.cost;
        point.lower_bound = row.lower_bound;
        point.gap = row.gap;
        point.termination = row.termination;
        point.bits_loaded = row.bits_loaded;
        point.bits_stored = row.bits_stored;
        point.area_lambda2 = synth.macro.area_lambda2;
        point.leakage_mw = synth.macro.leakage_mw;
        point.energy_nj = energy.total_energy_nj;
        result.points.push_back(point);
      }
    }
  }
  points_counter.Add(result.points.size());

  {
    obs::ScopedSpan dominance_span("explore.dominance");
    result.frontier = ParetoFrontier(result.points);
    for (std::size_t idx : result.frontier) {
      result.points[idx].on_frontier = true;
    }
    result.dominated = result.points.size() - result.frontier.size();
  }
  frontier_gauge.Max(result.frontier.size());

  result.ok = true;
  return result;
}

}  // namespace wrbpg
