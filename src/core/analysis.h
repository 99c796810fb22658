// Basic WRBPG properties (Sec 2.2) and the optimization targets of Sec 2.3.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "core/types.h"
#include "util/cancel.h"

namespace wrbpg {

// Proposition 2.4: Cost(S_G) >= sum_{v in A(G)} w_v + sum_{v in Z(G)} w_v
// for every valid schedule. Widely used as the best-case I/O estimate.
// A node in both A(G) and Z(G) (isolated; only graphs built without
// require_disjoint_sources_sinks have one) needs no I/O and is not
// counted, so the bound stays sound on every graph. Every other source
// must be loaded and every other sink stored, so a schedule that meets
// the bound loads exactly the source sum and stores exactly the sink sum.
Weight AlgorithmicLowerBound(const Graph& graph);

// The smallest budget for which a valid schedule exists: by Proposition 2.3
// this is max over non-source v of (w_v + sum_{p in H(v)} w_p).
Weight MinValidBudget(const Graph& graph);

// Proposition 2.3: a valid WRBPG schedule exists iff budget >= MinValidBudget.
bool ScheduleExists(const Graph& graph, Weight budget);

// Evaluates a scheduler at a budget and returns the weighted cost of the
// schedule it produces (kInfiniteCost when no schedule exists under the
// budget). Schedulers adapt themselves to this signature for budget searches.
using CostFn = std::function<Weight(Weight budget)>;

struct MinMemoryOptions {
  // Budgets scanned are lo, lo+step, lo+2*step, ..., <= hi. The paper
  // reports fast memory sizes in 16-bit words, i.e. step = 16.
  Weight lo = 1;
  Weight hi = 0;  // inclusive upper limit of the scan
  Weight step = 1;
  // When the scheduler's cost is monotone non-increasing in the budget
  // (true for the optimal DP schedulers), binary search is used; otherwise
  // a linear scan from lo upward finds the first achieving budget.
  bool monotone = false;
  // Cooperative cancellation, polled before every cost_fn probe. When the
  // token fires mid-search the result is nullopt (indistinguishable from
  // "no scanned budget achieves the target" — callers that care should
  // check the token afterwards).
  const CancelToken* cancel = nullptr;
  // Worker threads for the non-monotone linear scan: budgets are probed in
  // parallel blocks and the smallest achieving budget wins, so the answer
  // is identical to a sequential scan. The monotone binary search stays
  // sequential — each probe decides the next one, there is nothing to fan
  // out. cost_fn MUST be safe to call concurrently when threads != 1
  // (stateless schedulers like the brute-force oracle are; memoized DPs
  // such as DwtOptimalScheduler are not — keep those at 1). 0 selects
  // DefaultSearchThreads().
  std::size_t threads = 1;
  // Optional analytic band-tightening (derived from the state_bound /
  // Prop 2.3-2.4 machinery of the exact engine). When set, budgets below
  // MinValidBudget(*graph) are skipped without probing — cost_fn is
  // kInfiniteCost there by the scheduler contract — and a target_cost
  // below AlgorithmicLowerBound(*graph) short-circuits to nullopt, since
  // no budget can beat an admissible lower bound. Results are identical
  // to a graph-less scan, just cheaper.
  const Graph* graph = nullptr;
};

// Definition 2.6: the smallest scanned budget whose schedule cost equals
// `target_cost` (normally AlgorithmicLowerBound(graph)). Returns nullopt if
// no scanned budget achieves it.
std::optional<Weight> FindMinimumFastMemory(const CostFn& cost_fn,
                                            Weight target_cost,
                                            const MinMemoryOptions& options);

struct BudgetSweepOptions {
  // Worker threads; 0 selects DefaultSearchThreads(). cost_fn must be safe
  // to call concurrently when the resolved count exceeds 1.
  std::size_t threads = 0;
  // Polled between evaluations; budgets not yet evaluated when the token
  // fires come back as kInfiniteCost.
  const CancelToken* cancel = nullptr;
  // Optional band-tightening: budgets below MinValidBudget(*graph) come
  // back as kInfiniteCost without invoking cost_fn (by Prop 2.3 no valid
  // schedule exists there, and every scheduler's contract returns
  // kInfiniteCost for them anyway). Identical results, fewer probes.
  const Graph* graph = nullptr;
};

// Evaluates the Definition 2.5 MinimumSchedule target at every budget in
// the grid, fanning the per-budget evaluations across the pool (each entry
// is independent, so the result vector is identical at any thread count).
// The workhorse behind the bench sweeps and the --threads-sweep mode.
std::vector<Weight> EvaluateBudgets(const CostFn& cost_fn,
                                    const std::vector<Weight>& budgets,
                                    const BudgetSweepOptions& options = {});

}  // namespace wrbpg
