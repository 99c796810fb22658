#include "schedulers/dwt_optimal.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "core/analysis.h"
#include "obs/metrics.h"

namespace wrbpg {
namespace {

Weight SatAdd(Weight a, Weight b) {
  if (a >= kInfiniteCost || b >= kInfiniteCost) return kInfiniteCost;
  return a + b;
}

const obs::Counter& MemoHits() {
  static const obs::Counter c("dp.dwt.memo_hit");
  return c;
}
const obs::Counter& MemoMisses() {
  static const obs::Counter c("dp.dwt.memo_miss");
  return c;
}

}  // namespace

DwtOptimalScheduler::DwtOptimalScheduler(const DwtGraph& dwt)
    : dwt_(dwt),
      sibling_(dwt.graph.num_nodes(), kInvalidNode),
      memo_(dwt.graph.num_nodes()) {
  // Pair each average with its coefficient sibling and check the Lemma 3.2
  // weight precondition (w_coefficient <= w_average within each pair).
  for (std::size_t layer = 1; layer < dwt_.layers.size(); ++layer) {
    const auto& nodes = dwt_.layers[layer];
    assert(nodes.size() % 2 == 0);
    for (std::size_t j = 0; j + 1 < nodes.size(); j += 2) {
      const NodeId avg = nodes[j];
      const NodeId coeff = nodes[j + 1];
      assert(dwt_.roles[avg] == DwtRole::kAverage);
      assert(dwt_.roles[coeff] == DwtRole::kCoefficient);
      sibling_[avg] = coeff;
      if (dwt_.graph.weight(coeff) > dwt_.graph.weight(avg)) {
        std::fprintf(stderr,
                     "DwtOptimalScheduler: Lemma 3.2 precondition violated "
                     "(coefficient heavier than sibling average)\n");
        std::abort();
      }
      coefficient_weight_total_ += dwt_.graph.weight(coeff);
    }
  }
  const auto& last = dwt_.layers.back();
  for (std::size_t j = 0; j < last.size(); j += 2) roots_.push_back(last[j]);
}

DwtOptimalScheduler::Entry DwtOptimalScheduler::P(NodeId v, Weight b) {
  const Graph& g = dwt_.graph;
  if (g.is_source(v)) {
    Entry e;
    if (g.weight(v) <= b) {
      e.cost = g.weight(v);
      e.strategy = Strategy::kLeaf;
    }
    return e;
  }

  auto& node_memo = memo_[v];
  if (const auto it = node_memo.find(b); it != node_memo.end()) {
    MemoHits().Add(1);
    return it->second;
  }
  MemoMisses().Add(1);

  const auto parents = g.parents(v);
  assert(parents.size() == 2);
  const NodeId p1 = parents[0];
  const NodeId p2 = parents[1];
  const Weight w1 = g.weight(p1);
  const Weight w2 = g.weight(p2);

  Entry best;
  if (cancel_.cancelled()) {
    // Unwind without memoizing: entries derived from cancelled children
    // would record spurious infinite costs. Cancellation is monotone, so
    // nothing computed after this point is cached either.
    return best;
  }
  if (g.weight(v) + w1 + w2 <= b) {
    struct Candidate {
      Strategy strategy;
      Weight cost;
    };
    const Candidate candidates[] = {
        // Keep-red strategies first so that argmin ties never select a
        // spill of a source node (whose M2 would be redundant).
        {Strategy::kKeepKeep1, SatAdd(P(p1, b).cost, P(p2, b - w1).cost)},
        {Strategy::kKeepKeep2, SatAdd(P(p2, b).cost, P(p1, b - w2).cost)},
        {Strategy::kSpill1,
         SatAdd(SatAdd(P(p1, b).cost, P(p2, b).cost), 2 * w1)},
        {Strategy::kSpill2,
         SatAdd(SatAdd(P(p2, b).cost, P(p1, b).cost), 2 * w2)},
    };
    for (const auto& candidate : candidates) {
      if (candidate.cost < best.cost) {
        best.cost = candidate.cost;
        best.strategy = candidate.strategy;
      }
    }
  }
  // A child evaluated above may have unwound on cancellation and reported
  // a spurious infinite cost; re-check before caching.
  if (cancel_.latched()) return best;
  node_memo.emplace(b, best);
  return best;
}

void DwtOptimalScheduler::Generate(NodeId v, Weight b, Schedule& out) const {
  const Graph& g = dwt_.graph;
  if (g.is_source(v)) {
    out.Append(Load(v));
    return;
  }
  const auto it = memo_[v].find(b);
  assert(it != memo_[v].end() && it->second.cost < kInfiniteCost);
  const Strategy strategy = it->second.strategy;

  const auto parents = g.parents(v);
  const NodeId p1 = parents[0];
  const NodeId p2 = parents[1];

  switch (strategy) {
    case Strategy::kLeaf:
      assert(false && "non-source node resolved to kLeaf");
      break;
    case Strategy::kKeepKeep1:
      Generate(p1, b, out);
      Generate(p2, b - g.weight(p1), out);
      break;
    case Strategy::kKeepKeep2:
      Generate(p2, b, out);
      Generate(p1, b - g.weight(p2), out);
      break;
    case Strategy::kSpill1:
      assert(!g.is_source(p1));
      Generate(p1, b, out);
      out.Append(Store(p1));
      out.Append(Delete(p1));
      Generate(p2, b, out);
      out.Append(Load(p1));
      break;
    case Strategy::kSpill2:
      assert(!g.is_source(p2));
      Generate(p2, b, out);
      out.Append(Store(p2));
      out.Append(Delete(p2));
      Generate(p1, b, out);
      out.Append(Load(p2));
      break;
  }

  // Lemma 3.2: compute and emit the pruned coefficient sibling while the
  // shared parents are resident, then compute v and release the parents.
  const NodeId u = sibling_[v];
  assert(u != kInvalidNode);
  out.Append(Compute(u));
  out.Append(Store(u));
  out.Append(Delete(u));
  out.Append(Compute(v));
  out.Append(Delete(p1));
  out.Append(Delete(p2));
}

Weight DwtOptimalScheduler::CostOnly(Weight budget,
                                     const CancelToken* cancel) {
  cancel_ = CancelPoller(cancel);
  Weight total = coefficient_weight_total_;
  for (NodeId root : roots_) {
    const Entry e = P(root, budget);
    // An unwound recursion may report a finite but too-high cost.
    if (e.cost >= kInfiniteCost || cancel_.latched()) {
      cancel_ = CancelPoller();
      return kInfiniteCost;
    }
    total += e.cost + dwt_.graph.weight(root);
  }
  cancel_ = CancelPoller();
  return total;
}

ScheduleResult DwtOptimalScheduler::Run(Weight budget,
                                        const CancelToken* cancel) {
  const Weight cost = CostOnly(budget, cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    return ScheduleResult::TimedOut();
  }
  if (cost >= kInfiniteCost) return ScheduleResult::Infeasible();

  ScheduleResult result;
  result.feasible = true;
  result.cost = cost;
  // Algorithm 1 is exact on DWT instances: the cost is the optimum, so
  // the anytime contract closes with a zero gap.
  result.lower_bound = cost;
  result.optimality_gap = 0;
  result.termination = Termination::kOptimal;
  for (NodeId root : roots_) {
    Generate(root, budget, result.schedule);
    result.schedule.Append(Store(root));
    result.schedule.Append(Delete(root));
  }
  return result;
}

Weight DwtOptimalScheduler::MinMemoryForLowerBound(Weight step, Weight hi) {
  const Weight target = AlgorithmicLowerBound(dwt_.graph);
  const auto found = FindMinimumFastMemory(
      [this](Weight b) { return CostOnly(b); }, target,
      {.lo = step, .hi = hi, .step = step, .monotone = true});
  return found.value_or(0);
}

}  // namespace wrbpg
