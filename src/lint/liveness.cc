#include "lint/liveness.h"

#include <algorithm>

#include "core/rules.h"

namespace wrbpg {

template <typename ForEachUse>
UseTimeline UseTimeline::Build(NodeId num_nodes, ForEachUse&& for_each_use) {
  UseTimeline timeline;
  timeline.offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for_each_use([&](NodeId u, std::size_t) { ++timeline.offsets_[u + 1]; });
  for (NodeId v = 0; v < num_nodes; ++v) {
    timeline.offsets_[v + 1] += timeline.offsets_[v];
  }
  timeline.positions_.resize(timeline.offsets_[num_nodes]);
  timeline.cursor_.assign(timeline.offsets_.begin(),
                          timeline.offsets_.end() - 1);
  // Positions are visited in order, so each node's run comes out sorted.
  for_each_use([&](NodeId u, std::size_t t) {
    timeline.positions_[timeline.cursor_[u]++] = t;
  });
  timeline.cursor_.assign(timeline.offsets_.begin(),
                          timeline.offsets_.end() - 1);
  return timeline;
}

UseTimeline UseTimeline::OverComputeOrder(const Graph& graph,
                                          std::span<const NodeId> order) {
  return Build(graph.num_nodes(), [&](auto&& add) {
    for (std::size_t t = 0; t < order.size(); ++t) {
      const NodeId v = order[t];
      if (v >= graph.num_nodes()) continue;
      for (NodeId p : graph.parents(v)) add(p, t);
    }
  });
}

UseTimeline UseTimeline::OverMoves(const Graph& graph,
                                   const Schedule& schedule) {
  return Build(graph.num_nodes(), [&](auto&& add) {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      ForEachOperand(graph, schedule[i], [&](NodeId u) { add(u, i); });
    }
  });
}

std::size_t UseTimeline::NextUseAt(NodeId v, std::size_t t) const {
  auto& c = cursor_[v];
  const std::size_t end = offsets_[v + 1];
  while (c < end && positions_[c] < t) ++c;
  return c < end ? positions_[c] : kNoUse;
}

MoveRefCounts::MoveRefCounts(const Graph& graph, const Schedule& schedule)
    : graph_(graph), counts_(graph.num_nodes(), 0) {
  for (const Move& m : schedule) Count(m, +1);
}

void MoveRefCounts::Consume(const Move& move) { Count(move, -1); }

void MoveRefCounts::Count(const Move& move, std::int64_t delta) {
  if (move.node >= graph_.num_nodes()) return;
  // A move mentions its own node and its operands; an M2's one operand is
  // its own node.
  if (move.type != MoveType::kStore) counts_[move.node] += delta;
  ForEachOperand(graph_, move, [&](NodeId u) { counts_[u] += delta; });
}

MoveLiveness::MoveLiveness(const Graph& graph, const Schedule& schedule) {
  const NodeId n = graph.num_nodes();
  by_node_.resize(n);
  // open[v]: index into ranges_ of v's currently live range, or kNoMove.
  std::vector<std::size_t> open(n, kNoMove);

  auto use = [&](NodeId v, std::size_t i) {
    if (open[v] == kNoMove) return;  // read of a value that is not red
    LiveRange& r = ranges_[open[v]];
    if (r.use_count == 0) r.first_use = i;
    r.last_use = i;
    ++r.use_count;
  };

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Move& m = schedule[i];
    const NodeId v = m.node;
    if (v >= n) continue;
    ForEachOperand(graph, m, [&](NodeId u) { use(u, i); });
    switch (m.type) {
      case MoveType::kLoad:
      case MoveType::kCompute:
        if (open[v] != kNoMove) break;  // redundant def: keep current range
        open[v] = ranges_.size();
        by_node_[v].push_back(ranges_.size());
        ranges_.push_back({.node = v, .def = i, .def_type = m.type});
        break;
      case MoveType::kStore:  // its one effect, the read, is counted above
        break;
      case MoveType::kDelete:
        if (open[v] != kNoMove) {
          ranges_[open[v]].kill = i;
          open[v] = kNoMove;
        }
        break;
    }
  }
  // Ranges still open run to the end of the schedule (kill == kNoMove).
}

const LiveRange* MoveLiveness::RangeAt(NodeId v, std::size_t i) const {
  const auto& ids = by_node_[v];
  // Last range with def <= i.
  auto it = std::upper_bound(ids.begin(), ids.end(), i,
                             [&](std::size_t idx, std::size_t range_id) {
                               return idx < ranges_[range_id].def;
                             });
  if (it == ids.begin()) return nullptr;
  const LiveRange& r = ranges_[*std::prev(it)];
  return i <= r.kill ? &r : nullptr;  // kill == kNoMove covers live-out
}

}  // namespace wrbpg
