// The rules of the weighted red-blue pebble game, written once: the move
// rules M1-M4 (Sec 2, Fig 1 label transitions), the weighted red pebble
// constraint (Definition 2.1), the stopping condition, the typed taxonomy
// of their violations, and the diagnostic text of each.
//
// PebbleState is the pebble configuration of one Graph: red and blue sets
// as one bool per node plus the total red weight. Check() tests one move's
// preconditions and Apply() performs its effect; every replay of a
// schedule is a loop over the two:
//
//   * Simulate() (core/simulator.h) stops at the first violation, and
//     ExecuteSchedule() (exec/executor.h) is Simulate() plus an observer
//     that moves the data;
//   * LintSchedule()'s replay pass (lint/lint.h) reports every violation
//     and continues past it by applying the move anyway;
//   * the repairer (robust/repair.h) and the eviction list scheduler
//     behind Belady and the layer-by-layer baseline (schedulers/belady.h)
//     apply each move they emit.
//
// The exact search does not replay schedules: it enumerates whole sets of
// legal moves on packed or interned states (core/graph_masks.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "core/move.h"
#include "core/types.h"

namespace wrbpg {

// Typed taxonomy of rule violations, one code per simulator failure mode.
// Machine-readable counterpart of SimResult::error; the repairer in
// src/robust/ dispatches on it, and tests pin it exactly.
enum class SimErrorCode : std::uint8_t {
  kNone = 0,                 // valid schedule
  kNodeOutOfRange,           // move names a node >= num_nodes()
  kLoadNoBlue,               // M1 with no blue pebble to copy from
  kLoadAlreadyRed,           // M1 onto a node already red
  kStoreNoRed,               // M2 with no red pebble to copy from
  kStoreAlreadyBlue,         // M2 onto a node already blue
  kComputeSource,            // M3 on a source (inputs use M1)
  kComputeAlreadyRed,        // M3 onto a node already red
  kComputeParentNotRed,      // M3 with some parent not red
  kDeleteNoRed,              // M4 with no red pebble to delete
  kBudgetExceeded,           // weighted red constraint violated (Def 2.1)
  kInitialRedOverBudget,     // SimOptions::initial_red alone exceeds budget
  kStopConditionUnmet,       // a sink (the first is named) is not blue
  kReuseConditionUnmet,      // required_red_at_end node not red at the end
};

// Every code, for exhaustive iteration in tests and tools. Must list each
// enumerator exactly once; the ToString round-trip test enforces it.
inline constexpr SimErrorCode kAllSimErrorCodes[] = {
    SimErrorCode::kNone,
    SimErrorCode::kNodeOutOfRange,
    SimErrorCode::kLoadNoBlue,
    SimErrorCode::kLoadAlreadyRed,
    SimErrorCode::kStoreNoRed,
    SimErrorCode::kStoreAlreadyBlue,
    SimErrorCode::kComputeSource,
    SimErrorCode::kComputeAlreadyRed,
    SimErrorCode::kComputeParentNotRed,
    SimErrorCode::kDeleteNoRed,
    SimErrorCode::kBudgetExceeded,
    SimErrorCode::kInitialRedOverBudget,
    SimErrorCode::kStopConditionUnmet,
    SimErrorCode::kReuseConditionUnmet,
};

// Short stable identifier, e.g. "load-no-blue" (for CLI and logs). The
// switch has no default case, so adding an enumerator without extending
// this mapping fails the -Werror=switch build rather than silently
// rendering as "unknown".
const char* ToString(SimErrorCode code);

// Inverse of ToString over the stable identifiers: "load-no-blue" ->
// kLoadNoBlue; nullopt for anything else. Lets CLI/JSON consumers parse
// error codes back without a second, drift-prone table.
std::optional<SimErrorCode> SimErrorCodeFromString(std::string_view name);

// One violated rule and the node it is about: the move's node, the first
// non-red parent for kComputeParentNotRed, the sink or reuse node for the
// end conditions, kInvalidNode when no single node applies.
struct RuleViolation {
  SimErrorCode code = SimErrorCode::kNone;
  NodeId node = kInvalidNode;
};

// The diagnostic text of a violation, e.g. "M1(v3): no blue pebble to copy
// from": prefixed with the offending move, nullptr for the whole-schedule
// codes (initial red, stop and reuse conditions). kBudgetExceeded quotes
// the red weight after the move and the budget.
std::string DescribeViolation(const RuleViolation& violation,
                              const Move* move, Weight red_weight = 0,
                              Weight budget = 0);

class PebbleState {
 public:
  // The starting condition: blue pebbles on all of A(G), no red pebbles.
  explicit PebbleState(const Graph& graph);

  bool red(NodeId v) const { return red_[v]; }
  bool blue(NodeId v) const { return blue_[v]; }
  // Total weight of the red pebbles: the quantity Definition 2.1 bounds.
  Weight red_weight() const { return red_weight_; }

  // The first violated precondition of `move`, in this order:
  //   the node is in range;
  //   M1: blue, then not red;     M2: red, then not blue;
  //   M3: not a source, then not red, then every parent red — parents are
  //       walked in CSR (ascending) order, so the first non-red one is the
  //       node reported;
  //   M4: red.
  // Code kNone when the move is legal. The weighted red constraint is not a
  // precondition: it holds iff red_weight() <= budget after Apply().
  RuleViolation Check(Move move) const;

  // The effect of `move`: M1 and M3 place a red pebble, M2 a blue one, M4
  // removes the red one. Idempotent — a pebble already in place stays, and
  // the red weight changes only when a red pebble comes or goes — so a
  // replay can go on past a violated precondition. Out-of-range nodes
  // change nothing.
  void Apply(Move move);

  // Sinks holding no blue pebble, ascending; the stopping condition holds
  // iff this is empty.
  std::vector<NodeId> UnmetSinks() const;

 private:
  const Graph& graph_;
  NodeId num_nodes_;
  // Plain bool arrays: a write is a store, not a read-modify-write of a
  // word shared with neighbouring nodes, and a bool store does not alias
  // the graph's arrays the way a byte-typed one would.
  std::unique_ptr<bool[]> red_;
  std::unique_ptr<bool[]> blue_;
  Weight red_weight_ = 0;
};

inline RuleViolation PebbleState::Check(Move move) const {
  const NodeId v = move.node;
  if (v >= num_nodes_) return {SimErrorCode::kNodeOutOfRange, v};
  switch (move.type) {
    case MoveType::kLoad:
      if (!blue(v)) return {SimErrorCode::kLoadNoBlue, v};
      if (red(v)) return {SimErrorCode::kLoadAlreadyRed, v};
      break;
    case MoveType::kStore:
      if (!red(v)) return {SimErrorCode::kStoreNoRed, v};
      if (blue(v)) return {SimErrorCode::kStoreAlreadyBlue, v};
      break;
    case MoveType::kCompute:
      if (graph_.is_source(v)) return {SimErrorCode::kComputeSource, v};
      if (red(v)) return {SimErrorCode::kComputeAlreadyRed, v};
      for (const NodeId p : graph_.parents(v)) {
        if (!red(p)) return {SimErrorCode::kComputeParentNotRed, p};
      }
      break;
    case MoveType::kDelete:
      if (!red(v)) return {SimErrorCode::kDeleteNoRed, v};
      break;
  }
  return {};
}

inline void PebbleState::Apply(Move move) {
  const NodeId v = move.node;
  if (v >= num_nodes_) return;
  switch (move.type) {
    case MoveType::kLoad:
    case MoveType::kCompute:
      if (!red_[v]) red_weight_ += graph_.weight(v);
      red_[v] = true;
      break;
    case MoveType::kStore:
      blue_[v] = true;
      break;
    case MoveType::kDelete:
      if (red_[v]) red_weight_ -= graph_.weight(v);
      red_[v] = false;
      break;
  }
}

// Calls fn(u) for each value `move` reads from fast memory: M2 reads v's
// red pebble, M3 reads every parent in H(v) (none for a source), M1 and M4
// read nothing. Out-of-range nodes read nothing.
template <typename Fn>
void ForEachOperand(const Graph& graph, const Move& move, Fn&& fn) {
  if (move.node >= graph.num_nodes()) return;
  if (move.type == MoveType::kStore) {
    fn(move.node);
  } else if (move.type == MoveType::kCompute) {
    for (const NodeId p : graph.parents(move.node)) fn(p);
  }
}

}  // namespace wrbpg
