// One eviction list scheduler with two eviction rules: Belady for arbitrary
// CDAGs (here) and the Sec 5.1 layer-by-layer baseline (layer_by_layer.h).
//
// For each node of a fixed compute order the scheduler loads the parents
// that are not red, computes the node, deletes the parents no later node
// reads, and stores and deletes the node at once if it is a sink. When a
// placement would break the budget it evicts resident values the current
// node does not read, storing a victim first iff it has no blue pebble.
// Retirement is eager, so every evicted value is still needed. The
// scheduler holds a PebbleState (core/rules.h) and applies every move it
// emits.
//
// The two heuristics differ only in data fixed by their constructors:
//   * BeladyScheduler: a topological order; evicts the value whose next
//     use lies furthest in the future, then the heavier, then the earliest
//     placed. With the consumption sequence known in advance this is the
//     classic optimal-replacement rule.
//   * LayerByLayerScheduler: layers 1.. with alternating direction; evicts
//     the first placed (FIFO), and pinned values passed over rotate to the
//     back of the queue.
//
// Both are heuristics: optimal eviction does not imply optimal scheduling
// in the pebble game (recomputation and order freedom remain unexplored),
// so tests assert validity and bounds, not optimality.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"

namespace wrbpg {

class EvictionScheduler {
 public:
  ScheduleResult Run(Weight budget) const;
  Weight CostOnly(Weight budget) const;

  // Definition 2.6 scan (linear; heuristic costs need not be monotone).
  Weight MinMemoryForLowerBound(Weight step, Weight hi) const;

 protected:
  enum class Rule : std::uint8_t { kFurthestNextUse, kFirstPlaced };

  // `order` must list every non-source node exactly once, in a valid
  // topological order.
  EvictionScheduler(const Graph& graph, std::vector<NodeId> order, Rule rule);

 private:
  const Graph& graph_;
  std::vector<NodeId> order_;  // compute sequence (non-source nodes)
  Rule rule_;
};

class BeladyScheduler : public EvictionScheduler {
 public:
  // Uses the graph's canonical topological order; `order` overrides the
  // compute sequence.
  explicit BeladyScheduler(const Graph& graph);
  BeladyScheduler(const Graph& graph, std::vector<NodeId> order);
};

}  // namespace wrbpg
