#include "core/analysis.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

// Sweep-level observability: how many cost probes actually ran vs. how
// many the analytic bands (Prop 2.3 / state_bound) let us skip. Both
// counters are write-only — the sweeps never read them back.
const obs::Counter& ProbesEvaluated() {
  static const obs::Counter c("analysis.probes_evaluated");
  return c;
}
const obs::Counter& ProbesSkipped() {
  static const obs::Counter c("analysis.probes_skipped");
  return c;
}

}  // namespace

Weight AlgorithmicLowerBound(const Graph& graph) {
  // An isolated node is both a source and a sink: it starts blue, which
  // already meets its stop condition, so it needs neither a load nor a
  // store and counts in neither sum.
  Weight sum = 0;
  for (NodeId v : graph.sources()) {
    if (!graph.is_sink(v)) sum += graph.weight(v);
  }
  for (NodeId v : graph.sinks()) {
    if (!graph.is_source(v)) sum += graph.weight(v);
  }
  return sum;
}

Weight MinValidBudget(const Graph& graph) {
  Weight best = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.is_source(v)) continue;
    Weight need = graph.weight(v);
    for (NodeId p : graph.parents(v)) need += graph.weight(p);
    best = std::max(best, need);
  }
  // Sources must also fit alone for their initial M1 (implied by the above
  // whenever a source has a child, which disjointness guarantees).
  for (NodeId v : graph.sources()) best = std::max(best, graph.weight(v));
  return best;
}

bool ScheduleExists(const Graph& graph, Weight budget) {
  return budget >= MinValidBudget(graph);
}

std::optional<Weight> FindMinimumFastMemory(const CostFn& cost_fn,
                                            Weight target_cost,
                                            const MinMemoryOptions& options) {
  assert(options.step > 0);
  if (options.hi < options.lo) return std::nullopt;
  const obs::ScopedSpan span("analysis.min_memory");
  const Weight steps = (options.hi - options.lo) / options.step;

  auto budget_at = [&](Weight k) { return options.lo + k * options.step; };

  // Analytic bands (state_bound derivation, DESIGN.md §9): no budget can
  // push the cost below an admissible lower bound, and no budget below
  // MinValidBudget admits any schedule at all. Either fact lets us skip
  // probes without changing the answer.
  Weight first_k = 0;
  if (options.graph != nullptr && target_cost < kInfiniteCost) {
    if (target_cost < AlgorithmicLowerBound(*options.graph)) {
      return std::nullopt;
    }
    const Weight min_budget = MinValidBudget(*options.graph);
    if (budget_at(steps) < min_budget) return std::nullopt;
    while (first_k < steps && budget_at(first_k) < min_budget) ++first_k;
  }
  ProbesSkipped().Add(static_cast<std::uint64_t>(first_k));
  auto expired = [&] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };
  auto achieves = [&](Weight k) {
    ProbesEvaluated().Add(1);
    return cost_fn(budget_at(k)) <= target_cost;
  };

  if (options.monotone) {
    // Invariant: achieving budgets form a suffix of the scanned grid.
    if (expired() || !achieves(steps)) return std::nullopt;
    Weight lo = first_k, hi = steps;  // hi always achieves
    while (lo < hi) {
      if (expired()) return std::nullopt;
      const Weight mid = lo + (hi - lo) / 2;
      if (achieves(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return budget_at(hi);
  }

  const std::size_t threads = ResolveThreadCount(options.threads);
  if (threads > 1) {
    // Probe budgets in parallel blocks, ascending. Every budget in a block
    // is evaluated (no early exit inside a block), and the smallest
    // achieving budget of the first successful block wins — exactly the
    // budget the sequential scan below would return, at any thread count.
    ThreadPool pool(threads);
    const Weight block = static_cast<Weight>(threads) * 2;
    std::vector<char> achieved(static_cast<std::size_t>(block));
    for (Weight base = first_k; base <= steps; base += block) {
      if (expired()) return std::nullopt;
      const Weight hi = std::min(steps, base + block - 1);
      std::fill(achieved.begin(), achieved.end(), 0);
      ParallelFor(pool, base, hi + 1, [&](std::int64_t k) {
        achieved[static_cast<std::size_t>(k - base)] = achieves(k) ? 1 : 0;
      });
      for (Weight k = base; k <= hi; ++k) {
        if (achieved[static_cast<std::size_t>(k - base)] != 0) {
          return budget_at(k);
        }
      }
    }
    return std::nullopt;
  }

  for (Weight k = first_k; k <= steps; ++k) {
    if (expired()) return std::nullopt;
    if (achieves(k)) return budget_at(k);
  }
  return std::nullopt;
}

std::vector<Weight> EvaluateBudgets(const CostFn& cost_fn,
                                    const std::vector<Weight>& budgets,
                                    const BudgetSweepOptions& options) {
  const obs::ScopedSpan span("analysis.budget_sweep");
  std::vector<Weight> costs(budgets.size(), kInfiniteCost);
  const auto expired = [&] {
    return options.cancel != nullptr && options.cancel->cancelled();
  };
  // Infeasibility band (Prop 2.3): below MinValidBudget every scheduler
  // returns kInfiniteCost, which the vector already holds — skip the probe.
  const Weight min_budget =
      options.graph != nullptr ? MinValidBudget(*options.graph) : 0;
  const auto probe = [&](std::size_t idx) {
    if (budgets[idx] >= min_budget) {
      ProbesEvaluated().Add(1);
      costs[idx] = cost_fn(budgets[idx]);
    } else {
      ProbesSkipped().Add(1);
    }
  };
  const std::size_t threads = ResolveThreadCount(options.threads);
  if (threads > 1 && budgets.size() > 1) {
    ThreadPool pool(threads);
    ParallelFor(pool, 0, static_cast<std::int64_t>(budgets.size()),
                [&](std::int64_t i) {
                  if (expired()) return;
                  probe(static_cast<std::size_t>(i));
                });
    return costs;
  }
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    if (expired()) break;
    probe(i);
  }
  return costs;
}

}  // namespace wrbpg
