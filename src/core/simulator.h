// Reference simulator for the WRBPG: validates schedules and computes costs.
//
// Simulate() replays a move sequence from the starting condition (blue
// pebbles on all of A(G)) through the rules kernel (core/rules.h): per move
// it checks the preconditions of M1-M4, applies the move, and enforces the
// weighted red pebble constraint sum_{v in R(C_i)} w_v <= B (Definition
// 2.1); at the end it checks the stopping condition (blue pebbles on all of
// Z(G)). It stops at the first violation. The returned result carries the
// weighted schedule cost (Definition 2.2), the peak resident red weight,
// and move-type counts.
//
// Every scheduler in this repository is tested by passing its output through
// this simulator; validity itself is defined once, in core/rules.h.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/rules.h"
#include "core/schedule.h"
#include "core/types.h"

namespace wrbpg {

struct SimOptions {
  // Require all sinks blue at the end (the game's stopping condition).
  // Disabled for partial schedules (e.g. per-tile sub-schedules).
  bool require_stop_condition = true;
  // Extra pebbles present before the first move, for the Sec 4.1
  // memory-state semantics (sources always start blue regardless).
  std::vector<NodeId> initial_red = {};
  std::vector<NodeId> initial_blue = {};
  // Nodes that must hold red pebbles after the last move (reuse sets).
  std::vector<NodeId> required_red_at_end = {};
};

struct SimResult {
  bool valid = false;
  std::string error;            // human-readable reason when !valid
  std::size_t error_index = 0;  // move index of the first violation
  SimErrorCode code = SimErrorCode::kNone;  // typed reason when !valid
  // Node the violation is about: the move's node, the missing parent for
  // kComputeParentNotRed, or the unsatisfied sink/reuse node for the
  // end-condition codes. kInvalidNode when no single node applies.
  NodeId error_node = kInvalidNode;

  Weight cost = 0;             // Definition 2.2: sum of M1/M2 weights
  Weight peak_red_weight = 0;  // max over snapshots of total red weight
  Weight final_red_weight = 0;
  std::size_t loads = 0;     // M1 count
  std::size_t stores = 0;    // M2 count
  std::size_t computes = 0;  // M3 count
  std::size_t deletes = 0;   // M4 count
  bool stop_condition_met = false;
};

// Observer invoked after each successfully applied move; receives the move
// index, the move, and the total red weight of the resulting snapshot.
using SimObserver =
    std::function<void(std::size_t, const Move&, Weight red_weight)>;

SimResult Simulate(const Graph& graph, Weight budget, const Schedule& schedule,
                   const SimOptions& options = {},
                   const SimObserver& observer = nullptr);

}  // namespace wrbpg
