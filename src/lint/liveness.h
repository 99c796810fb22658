// Liveness analysis over WRBPG schedules and compute orders.
//
// Three views of the same question — "when is this value needed next?" —
// shared by every consumer that used to answer it with an ad-hoc scan:
//
//   * UseTimeline     next-use distances over an ordered consumer sequence
//                     (the Belady eviction rule's oracle).
//   * MoveRefCounts   forward reference counts over a move sequence
//                     (RepairSchedule's eviction policy).
//   * MoveLiveness    def/use chains and live ranges over a move sequence
//                     (the lint rules in lint.h).
//
// All three are pure functions of (graph, sequence): they never run the
// simulator and tolerate invalid schedules (redundant defs/kills fold into
// the current range; moves naming out-of-range nodes are ignored).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/graph.h"
#include "core/move.h"
#include "core/schedule.h"
#include "core/types.h"

namespace wrbpg {

// "This value is never consumed again" / "no move holds this position".
inline constexpr std::size_t kNoUse = std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kNoMove = std::numeric_limits<std::size_t>::max();

// Per-node sorted consumption positions with amortized-O(1) next-use
// queries for nondecreasing query positions (each node keeps a cursor).
class UseTimeline {
 public:
  UseTimeline() = default;

  // Positions are compute-order slots: slot t consumes parents(order[t]).
  // This is the oracle Belady-style eviction ranks victims with.
  static UseTimeline OverComputeOrder(const Graph& graph,
                                      std::span<const NodeId> order);

  // Positions are move indices: move i consumes v when it stores v (M2
  // reads the red pebble) or computes a node with parent v (M3 reads every
  // parent). Loads and deletes consume nothing.
  static UseTimeline OverMoves(const Graph& graph, const Schedule& schedule);

  // First consumption of v at or after position t (kNoUse when exhausted).
  // Queries for a fixed v must have nondecreasing t; interleaving nodes is
  // fine. This matches every replay-shaped caller and keeps the whole
  // timeline O(total uses) instead of O(uses * queries).
  std::size_t NextUseAt(NodeId v, std::size_t t) const;

 private:
  // Calls for_each_use(add) twice, add(u, t) once per use of u at t with
  // t nondecreasing: first to count the uses per node, then to record them
  // in one array, node v's at positions_[offsets_[v], offsets_[v + 1]).
  template <typename ForEachUse>
  static UseTimeline Build(NodeId num_nodes, ForEachUse&& for_each_use);

  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> positions_;
  mutable std::vector<std::size_t> cursor_;  // index into positions_
};

// How often the remaining moves of a schedule mention each node — as a
// move's own node, or as a parent of a computed non-source node. Built from
// the full sequence, then decremented via Consume() as a replay advances;
// remaining(v) == 0 means the rest of the input never touches v.
class MoveRefCounts {
 public:
  MoveRefCounts(const Graph& graph, const Schedule& schedule);

  // The move at the replay cursor is no longer "future".
  void Consume(const Move& move);

  std::int64_t remaining(NodeId v) const { return counts_[v]; }

 private:
  void Count(const Move& move, std::int64_t delta);

  const Graph& graph_;
  std::vector<std::int64_t> counts_;
};

// One contiguous red-pebble residency of a value: defined at move `def`
// (an M1 or M3), read by `use_count` later moves (M2 of the node, M3 of a
// child), and released at move `kill` (an M4) or held to the end of the
// schedule (kill == kNoMove).
struct LiveRange {
  NodeId node = kInvalidNode;
  std::size_t def = kNoMove;
  MoveType def_type = MoveType::kLoad;
  std::size_t kill = kNoMove;
  std::size_t first_use = kNoUse;
  std::size_t last_use = kNoUse;
  std::size_t use_count = 0;
};

// Def/use chains per node over a move sequence. O(moves * avg-degree).
class MoveLiveness {
 public:
  MoveLiveness(const Graph& graph, const Schedule& schedule);

  // All ranges, ordered by def index.
  const std::vector<LiveRange>& ranges() const { return ranges_; }

  // Indices into ranges() for node v, ascending by def.
  std::span<const std::size_t> ranges_of(NodeId v) const { return by_node_[v]; }

  // The range of v whose residency covers move index i (def <= i and
  // i <= kill), or nullptr when v holds no red pebble at i.
  const LiveRange* RangeAt(NodeId v, std::size_t i) const;

 private:
  std::vector<LiveRange> ranges_;
  std::vector<std::vector<std::size_t>> by_node_;
};

}  // namespace wrbpg
