#include "schedulers/belady.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "core/analysis.h"
#include "core/rules.h"
#include "lint/liveness.h"

namespace wrbpg {
namespace {

std::vector<NodeId> TopologicalComputeOrder(const Graph& graph) {
  std::vector<NodeId> order;
  for (NodeId v : graph.topological_order()) {
    if (!graph.is_source(v)) order.push_back(v);
  }
  return order;
}

}  // namespace

EvictionScheduler::EvictionScheduler(const Graph& graph,
                                     std::vector<NodeId> order, Rule rule)
    : graph_(graph), order_(std::move(order)), rule_(rule) {
#ifndef NDEBUG
  std::vector<unsigned char> seen(graph.num_nodes(), 0);
  for (NodeId v : order_) {
    assert(!graph.is_source(v) && !seen[v]);
    seen[v] = 1;
  }
  assert(order_.size() + graph.sources().size() == graph.num_nodes());
#endif
}

BeladyScheduler::BeladyScheduler(const Graph& graph)
    : EvictionScheduler(graph, TopologicalComputeOrder(graph),
                        Rule::kFurthestNextUse) {}

BeladyScheduler::BeladyScheduler(const Graph& graph, std::vector<NodeId> order)
    : EvictionScheduler(graph, std::move(order), Rule::kFurthestNextUse) {}

ScheduleResult EvictionScheduler::Run(Weight budget) const {
  const NodeId n = graph_.num_nodes();
  // Next-use oracle over the compute sequence (shared liveness module),
  // built for the furthest-next-use rule only.
  UseTimeline timeline;
  if (rule_ == Rule::kFurthestNextUse) {
    timeline = UseTimeline::OverComputeOrder(graph_, order_);
  }

  // Every node is placed and deleted at least once, every sink stored.
  std::vector<Move> moves;
  moves.reserve(2 * static_cast<std::size_t>(n) + graph_.sinks().size());
  PebbleState state(graph_);
  Weight cost = 0;
  auto emit = [&](Move m) {
    assert(state.Check(m).code == SimErrorCode::kNone);
    state.Apply(m);
    moves.push_back(m);
    if (m.type == MoveType::kLoad || m.type == MoveType::kStore) {
      cost += graph_.weight(m.node);
    }
  };
  std::vector<unsigned char> pinned(n, 0);  // parents of the current node
  std::vector<std::size_t> remaining(n);    // children not yet computed
  for (NodeId v = 0; v < n; ++v) remaining[v] = graph_.out_degree(v);
  // Placed values in placement order. An evicted value leaves at once; a
  // retired one lingers until a scan passes it, since it is never placed
  // again.
  std::deque<NodeId> resident;

  // Takes the value the rule evicts at step t out of `resident`;
  // kInvalidNode when every resident value is pinned.
  auto pop_victim = [&](std::size_t t) {
    if (rule_ == Rule::kFirstPlaced) {
      // Each entry is looked at once; pinned ones rotate to the back.
      for (std::size_t left = resident.size(); left > 0; --left) {
        const NodeId r = resident.front();
        resident.pop_front();
        if (!state.red(r)) continue;  // retired
        if (!pinned[r]) return r;
        resident.push_back(r);
      }
      return kInvalidNode;
    }
    // Furthest next use, then heavier, then earliest placed. The same pass
    // drops retired values from the list.
    auto kept = resident.begin();
    auto victim = resident.end();
    std::size_t victim_use = 0;
    for (const NodeId r : resident) {
      if (!state.red(r)) continue;
      *kept = r;
      if (!pinned[r]) {
        const std::size_t use = timeline.NextUseAt(r, t);
        if (victim == resident.end() || use > victim_use ||
            (use == victim_use && graph_.weight(r) > graph_.weight(*victim))) {
          victim = kept;
          victim_use = use;
        }
      }
      ++kept;
    }
    if (victim == resident.end()) {
      resident.erase(kept, resident.end());
      return kInvalidNode;
    }
    const NodeId r = *victim;
    std::move(victim + 1, kept, victim);
    resident.erase(kept - 1, resident.end());
    return r;
  };
  // Evicts until `w` more bits fit at step t; false when only pinned
  // values are left to evict.
  auto make_room = [&](Weight w, std::size_t t) {
    while (state.red_weight() + w > budget) {
      const NodeId victim = pop_victim(t);
      if (victim == kInvalidNode) return false;
      if (!state.blue(victim)) emit(Store(victim));
      emit(Delete(victim));
    }
    return true;
  };

  for (std::size_t t = 0; t < order_.size(); ++t) {
    const NodeId v = order_[t];
    const auto parents = graph_.parents(v);
    for (NodeId p : parents) pinned[p] = 1;
    for (NodeId p : parents) {
      if (state.red(p)) continue;
      if (!make_room(graph_.weight(p), t)) return ScheduleResult::Infeasible();
      emit(Load(p));
      resident.push_back(p);
    }
    if (!make_room(graph_.weight(v), t)) return ScheduleResult::Infeasible();
    emit(Compute(v));
    resident.push_back(v);
    for (NodeId p : parents) {
      pinned[p] = 0;
      if (--remaining[p] == 0) emit(Delete(p));
    }
    if (graph_.is_sink(v)) {
      emit(Store(v));
      emit(Delete(v));
    }
  }

  ScheduleResult result;
  result.feasible = true;
  result.cost = cost;
  result.schedule = Schedule(std::move(moves));
  return result;
}

Weight EvictionScheduler::CostOnly(Weight budget) const {
  const ScheduleResult r = Run(budget);
  return r.feasible ? r.cost : kInfiniteCost;
}

Weight EvictionScheduler::MinMemoryForLowerBound(Weight step, Weight hi) const {
  const Weight target = AlgorithmicLowerBound(graph_);
  const auto found = FindMinimumFastMemory(
      [this](Weight b) { return CostOnly(b); }, target,
      {.lo = step, .hi = hi, .step = step, .monotone = false});
  return found.value_or(0);
}

}  // namespace wrbpg
