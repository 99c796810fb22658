#include "schedulers/kary_tree.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "core/analysis.h"
#include "dataflows/tree_graph.h"
#include "obs/metrics.h"

namespace wrbpg {
namespace {

Weight SatAdd(Weight a, Weight b) {
  if (a >= kInfiniteCost || b >= kInfiniteCost) return kInfiniteCost;
  return a + b;
}

const obs::Counter& MemoHits() {
  static const obs::Counter c("dp.kary.memo_hit");
  return c;
}
const obs::Counter& MemoMisses() {
  static const obs::Counter c("dp.kary.memo_miss");
  return c;
}

}  // namespace

KaryTreeScheduler::KaryTreeScheduler(const Graph& graph)
    : graph_(graph), memo_(graph.num_nodes()) {
  const auto root = TreeRoot(graph);
  if (!root) {
    std::fprintf(stderr, "KaryTreeScheduler: graph is not a rooted in-tree\n");
    std::abort();
  }
  root_ = *root;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.in_degree(v) > 8) {
      std::fprintf(stderr,
                   "KaryTreeScheduler: in-degree %zu exceeds the supported "
                   "bound of 8\n",
                   graph.in_degree(v));
      std::abort();
    }
  }
}

KaryTreeScheduler::Entry KaryTreeScheduler::P(NodeId v, Weight b) {
  if (graph_.is_source(v)) {
    Entry e;
    if (graph_.weight(v) <= b) e.cost = graph_.weight(v);
    return e;
  }
  auto& node_memo = memo_[v];
  if (const auto it = node_memo.find(b); it != node_memo.end()) {
    MemoHits().Add(1);
    return it->second;
  }
  MemoMisses().Add(1);

  const auto parents = graph_.parents(v);
  const int k = static_cast<int>(parents.size());

  Entry best;
  // Unwind without memoizing, as the DWT DP does: entries derived from
  // cancelled children would record spurious costs.
  if (cancel_.cancelled()) return best;
  Weight need = graph_.weight(v);
  for (NodeId p : parents) need += graph_.weight(p);
  if (need <= b) {
    std::array<std::uint8_t, 8> order{};
    std::iota(order.begin(), order.begin() + k, std::uint8_t{0});
    do {
      // Evaluate delta masks from all-keep downward so that, on cost ties,
      // keep-heavy (spill-light) choices win.
      for (std::uint32_t delta = (1u << k); delta-- > 0;) {
        Weight cost = 0;
        Weight remaining = b;
        for (int i = 0; i < k && cost < kInfiniteCost; ++i) {
          const NodeId p = parents[order[static_cast<std::size_t>(i)]];
          cost = SatAdd(cost, P(p, remaining).cost);
          if ((delta >> i) & 1u) {
            remaining -= graph_.weight(p);
          } else {
            cost = SatAdd(cost, 2 * graph_.weight(p));
          }
        }
        if (cost < best.cost) {
          best.cost = cost;
          best.delta = delta;
          best.perm = 0;
          for (int i = 0; i < k; ++i) {
            best.perm |= static_cast<std::uint32_t>(
                             order[static_cast<std::size_t>(i)])
                         << (4 * i);
          }
        }
      }
    } while (std::next_permutation(order.begin(), order.begin() + k));
  }
  if (cancel_.latched()) return best;
  node_memo.emplace(b, best);
  return best;
}

void KaryTreeScheduler::Generate(NodeId v, Weight b, Schedule& out) const {
  if (graph_.is_source(v)) {
    out.Append(Load(v));
    return;
  }
  const auto it = memo_[v].find(b);
  assert(it != memo_[v].end() && it->second.cost < kInfiniteCost);
  const Entry& entry = it->second;

  const auto parents = graph_.parents(v);
  const int k = static_cast<int>(parents.size());

  Weight remaining = b;
  for (int i = 0; i < k; ++i) {
    const NodeId p = parents[(entry.perm >> (4 * i)) & 0xf];
    Generate(p, remaining, out);
    if ((entry.delta >> i) & 1u) {
      remaining -= graph_.weight(p);
    } else {
      // Spilling a source would re-store an existing blue pebble; the DP's
      // dominance ordering guarantees an argmin never does this.
      assert(!graph_.is_source(p));
      out.Append(Store(p));
      out.Append(Delete(p));
    }
  }
  // Reload the spilled parents now that the kept ones are co-resident.
  for (int i = 0; i < k; ++i) {
    if ((entry.delta >> i) & 1u) continue;
    out.Append(Load(parents[(entry.perm >> (4 * i)) & 0xf]));
  }
  out.Append(Compute(v));
  for (NodeId p : parents) out.Append(Delete(p));
}

Weight KaryTreeScheduler::CostOnly(Weight budget,
                                   const CancelToken* cancel) {
  cancel_ = CancelPoller(cancel);
  const Entry e = P(root_, budget);
  // An unwound recursion may report a finite but too-high cost.
  const bool unwound = cancel_.latched();
  cancel_ = CancelPoller();
  if (e.cost >= kInfiniteCost || unwound) return kInfiniteCost;
  return e.cost + graph_.weight(root_);
}

ScheduleResult KaryTreeScheduler::Run(Weight budget,
                                      const CancelToken* cancel) {
  const Weight cost = CostOnly(budget, cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    return ScheduleResult::TimedOut();
  }
  if (cost >= kInfiniteCost) return ScheduleResult::Infeasible();
  ScheduleResult result;
  result.feasible = true;
  result.cost = cost;
  Generate(root_, budget, result.schedule);
  result.schedule.Append(Store(root_));
  result.schedule.Append(Delete(root_));
  // Theorem 3.8: the DP enumerates every ordering/spill choice, so the
  // answer is a proven optimum, not merely a feasible schedule.
  result.lower_bound = cost;
  result.optimality_gap = 0;
  result.termination = Termination::kOptimal;
  return result;
}

Weight KaryTreeScheduler::MinMemoryForLowerBound(Weight step, Weight hi) {
  const Weight target = AlgorithmicLowerBound(graph_);
  const auto found = FindMinimumFastMemory(
      [this](Weight b) { return CostOnly(b); }, target,
      {.lo = step, .hi = hi, .step = step, .monotone = true});
  return found.value_or(0);
}

}  // namespace wrbpg
