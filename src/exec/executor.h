// Schedule execution engine: runs a WRBPG schedule on real data.
//
// Models the two-level memory machine behind the game: slow memory holds
// blue-pebbled values, fast memory holds red-pebbled values, and the four
// moves move/compute/discard actual numbers. M3 applies a user-supplied
// node semantic to the parent values found in fast memory. Execution is
// Simulate() plus an observer that moves the data, so the rules, and the
// text of every rejection, are the simulator's; on top of them it verifies
// that a schedule computes the right *values* — the end-to-end check that
// schedules are not just rule-abiding but functionally correct dataflow
// programs.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "core/types.h"

namespace wrbpg {

// Semantic of a compute (M3) node: maps the values of parents(v), in
// Graph::parents order, to the node's value.
using NodeOp = std::function<double(NodeId, std::span<const double>)>;

struct ExecResult {
  bool ok = false;
  std::string error;
  std::size_t error_index = 0;

  // Values held in slow memory at the end, indexed by NodeId; entries are
  // meaningful only where present[] is set (sources and stored nodes).
  std::vector<double> slow_values;
  std::vector<unsigned char> present;

  Weight bits_loaded = 0;       // M1 traffic
  Weight bits_stored = 0;       // M2 traffic
  Weight peak_fast_bits = 0;    // max resident weight, == simulator's peak
};

// Executes `schedule` on the graph with initial slow-memory contents
// `source_values` (indexed by NodeId; only source entries are read). Fails
// with ok == false when `source_values` holds fewer than num_nodes()
// entries.
ExecResult ExecuteSchedule(const Graph& graph, Weight budget,
                           const Schedule& schedule, const NodeOp& op,
                           const std::vector<double>& source_values);

}  // namespace wrbpg
