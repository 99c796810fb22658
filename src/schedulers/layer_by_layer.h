// Layer-by-layer scheduling heuristic — the DWT baseline of Sec 5.1.
//
// Traverses the graph layer after layer; within a layer, nodes are scheduled
// in index order, alternating ascending/descending direction between layers
// (the paper's optimization that retains recently computed values across
// adjacent layers). It is the eviction list scheduler of belady.h with the
// FIFO rule: when placing a pebble would exceed the fast-memory budget,
// resident values that still have pending children are spilled to slow
// memory in the order they were placed; values whose children are all
// computed are deleted eagerly (outputs are stored first).
//
// Works on any layered CDAG description (layers[0] = the input layer) and
// produces a valid schedule for every budget >= MinValidBudget.
#pragma once

#include <vector>

#include "core/graph.h"
#include "schedulers/belady.h"

namespace wrbpg {

class LayerByLayerScheduler : public EvictionScheduler {
 public:
  // `layers` partitions the node set; layers[0] must be exactly the sources.
  // `alternate` toggles the direction alternation (kept for the ablation
  // study; the paper's baseline uses true).
  LayerByLayerScheduler(const Graph& graph,
                        const std::vector<std::vector<NodeId>>& layers,
                        bool alternate = true);
};

}  // namespace wrbpg
