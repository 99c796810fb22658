// Schedule repair: patch a possibly-invalid move sequence into one the
// simulator accepts, or explain precisely why that is impossible.
//
// The repairer replays the input against the game state (a PebbleState,
// core/rules.h, that every emitted move is applied to) but instead of
// failing on the first violation it edits:
//
//   * moves whose effect already holds (M1/M3 onto a red node, M2 onto a
//     blue node, M4 of a non-red node) are dropped as redundant;
//   * moves whose preconditions are missing are preceded by the cheapest
//     legal preparation — a free M3 when all parents are red, an M1 when a
//     blue pebble exists, otherwise the parents are materialized
//     recursively (re-deriving the value from its ancestors, bottoming out
//     at the always-blue sources);
//   * budget overruns evict resident reds: values with no remaining
//     reference in the rest of the input are deleted outright, others are
//     stored first (so they stay recoverable) — lowest weight first in
//     both tiers, never touching pebbles pinned by the in-flight
//     preparation;
//   * a missing stopping condition is restored by materializing and
//     storing every sink that lacks a blue pebble.
//
// When a required working set cannot fit — the node plus its pinned
// context exceeds the budget, the Prop 2.3 obstruction — the repairer
// returns a structured diagnostic (SimErrorCode::kBudgetExceeded plus the
// offending node and input position) instead of a schedule. Every returned
// schedule is re-verified through Simulate before it leaves this module.
//
// Repair covers the standard game (sources blue at the start, all sinks
// blue at the end); the memory-state variants carry their own contracts.
#pragma once

#include <string>

#include "core/graph.h"
#include "core/schedule.h"
#include "core/simulator.h"

namespace wrbpg {

enum class RepairStatus : std::uint8_t {
  kAlreadyValid = 0,  // input passed Simulate unchanged
  kRepaired,          // output differs from input and passes Simulate
  kIrreparable,       // no valid schedule reachable; see the diagnostic
};

const char* ToString(RepairStatus status);

struct RepairResult {
  RepairStatus status = RepairStatus::kIrreparable;
  Schedule schedule;       // valid unless status == kIrreparable
  SimResult verification;  // Simulate() of `schedule` (or of the input when
                           // irreparable before any edit was possible)

  // Structured diagnostic, populated when irreparable.
  SimErrorCode code = SimErrorCode::kNone;
  NodeId node = kInvalidNode;     // node the failure is about
  std::size_t input_index = 0;    // input move being processed at failure
  std::string message;

  // Edit accounting over the input sequence.
  std::size_t moves_kept = 0;
  std::size_t moves_dropped = 0;
  std::size_t moves_inserted = 0;
};

// Gives up (irreparable, with a kBudgetExceeded-free diagnostic) past
// 2^22 emitted moves, a safety valve against pathological inputs.
RepairResult RepairSchedule(const Graph& graph, Weight budget,
                            const Schedule& input);

}  // namespace wrbpg
