// Scheduling under fast-memory states — Sec 4.1, Eq. (8) and its k-ary
// derivative.
//
// Extends the tree pebbling recursion with user-provided memory states: an
// initial set I of nodes already resident in fast memory before the
// computation, and a reuse set R of nodes that must be resident after the
// target node is computed. For a node with parents p_1..p_k the recursion
// enumerates parent orderings sigma and keep/spill decisions delta (the
// Eq. (6) machinery), with the Eq. (8) budget adjustments:
//
//   * budget check includes R_v, H(v) and v (all must co-reside at some
//     point to honor the semantics);
//   * v in I: nothing to compute; release stale initial residents below v
//     and bring in R_v \ I (assumed blue) at cost sum of their weights;
//   * parent sigma(i) is scheduled under the budget less (a) the initial
//     sets of the subtrees not yet computed — they occupy memory from the
//     start — and (b) everything earlier subtrees keep resident: their
//     reuse sets plus the earlier parents themselves when delta keeps
//     them red.
//
// k = 2 reduces exactly to the paper's four Eq. (8) strategies. Once an R
// node is computed or loaded it stays resident (the paper's standing
// assumption), so deltas that would spill an R-parent are excluded. One
// refinement over the literal 2w spill charge: spilling a *source* parent
// costs w (reload only — its blue pebble is permanent); the
// simulator-verified schedules realize exactly the reported cost.
//
// Supports in-trees of up to 64 nodes (sets are bitmasks) with in-degree
// at most 8; this is the module-level engine behind tile composition and
// is cross-checked against the brute-force oracle's memory-state mode.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"

namespace wrbpg {

struct MemoryState {
  std::uint64_t initial = 0;  // I: resident (red) before the schedule runs
  std::uint64_t reuse = 0;    // R: must be resident (red) at the end
};

class MemoryStateScheduler {
 public:
  // `graph` must be a rooted in-tree with at most 64 nodes and in-degree
  // at most 8.
  explicit MemoryStateScheduler(const Graph& graph);

  // Cost of computing `target` (ending red) under the state semantics.
  Weight Cost(NodeId target, Weight budget, const MemoryState& state);

  // Schedule realizing Cost(); validity is relative to initial pebbles
  // I (red) and sources + (R \ I) (blue), with no sink-blue requirement —
  // i.e. BruteForceOptions{initial_red = I, initial_blue = ...,
  // required_red_at_end = R | {target}, require_sinks_blue = false}.
  ScheduleResult Run(NodeId target, Weight budget, const MemoryState& state);

 private:
  struct Entry {
    Weight cost = kInfiniteCost;
    bool is_state_case = true;  // v in I, or a leaf: no ordering choice
    // Parent visit order (indices into parents(v), low nibble first) and
    // keep/spill mask (bit i set = parent sigma(i) kept red).
    std::uint32_t perm = 0;
    std::uint32_t delta = 0;
  };
  struct Key {
    NodeId node;
    Weight budget;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(k.node) << 40) ^
          static_cast<std::uint64_t>(k.budget));
    }
  };

  Weight MaskWeight(std::uint64_t mask) const;
  Entry P(NodeId v, Weight b);
  void Generate(NodeId v, Weight b, Schedule& out) const;

  const Graph& graph_;
  std::vector<std::uint64_t> subtree_mask_;
  // Query context (set by Cost/Run; memo is per-(I,R) query).
  MemoryState state_;
  std::unordered_map<Key, Entry, KeyHash> memo_;
};

}  // namespace wrbpg
