#include "core/rules.h"

namespace wrbpg {
namespace {

std::string NodeStr(NodeId v) { return "v" + std::to_string(v); }

}  // namespace

const char* ToString(SimErrorCode code) {
  switch (code) {
    case SimErrorCode::kNone: return "none";
    case SimErrorCode::kNodeOutOfRange: return "node-out-of-range";
    case SimErrorCode::kLoadNoBlue: return "load-no-blue";
    case SimErrorCode::kLoadAlreadyRed: return "load-already-red";
    case SimErrorCode::kStoreNoRed: return "store-no-red";
    case SimErrorCode::kStoreAlreadyBlue: return "store-already-blue";
    case SimErrorCode::kComputeSource: return "compute-source";
    case SimErrorCode::kComputeAlreadyRed: return "compute-already-red";
    case SimErrorCode::kComputeParentNotRed: return "compute-parent-not-red";
    case SimErrorCode::kDeleteNoRed: return "delete-no-red";
    case SimErrorCode::kBudgetExceeded: return "budget-exceeded";
    case SimErrorCode::kInitialRedOverBudget: return "initial-red-over-budget";
    case SimErrorCode::kStopConditionUnmet: return "stop-condition-unmet";
    case SimErrorCode::kReuseConditionUnmet: return "reuse-condition-unmet";
  }
  return "unknown";
}

std::optional<SimErrorCode> SimErrorCodeFromString(std::string_view name) {
  for (const SimErrorCode code : kAllSimErrorCodes) {
    if (name == ToString(code)) return code;
  }
  return std::nullopt;
}

std::string DescribeViolation(const RuleViolation& violation,
                              const Move* move, Weight red_weight,
                              Weight budget) {
  std::string message = move != nullptr ? ToString(*move) + ": " : "";
  switch (violation.code) {
    case SimErrorCode::kNone:
      break;
    case SimErrorCode::kNodeOutOfRange:
      message += "node out of range";
      break;
    case SimErrorCode::kLoadNoBlue:
      message += "no blue pebble to copy from";
      break;
    case SimErrorCode::kLoadAlreadyRed:
    case SimErrorCode::kComputeAlreadyRed:
      message += "node already holds a red pebble";
      break;
    case SimErrorCode::kStoreNoRed:
      message += "no red pebble to copy from";
      break;
    case SimErrorCode::kStoreAlreadyBlue:
      message += "node already holds a blue pebble";
      break;
    case SimErrorCode::kComputeSource:
      message += "source nodes are inputs and cannot be computed; use M1";
      break;
    case SimErrorCode::kComputeParentNotRed:
      message += "parent " + NodeStr(violation.node) + " holds no red pebble";
      break;
    case SimErrorCode::kDeleteNoRed:
      message += "no red pebble to delete";
      break;
    case SimErrorCode::kBudgetExceeded:
      message += "weighted red pebble constraint violated (" +
                 std::to_string(red_weight) + " > budget " +
                 std::to_string(budget) + ")";
      break;
    case SimErrorCode::kInitialRedOverBudget:
      message += "initial red pebbles already exceed the budget";
      break;
    case SimErrorCode::kStopConditionUnmet:
      message += "stopping condition unmet: sink " + NodeStr(violation.node) +
                 " holds no blue pebble";
      break;
    case SimErrorCode::kReuseConditionUnmet:
      message += "reuse condition unmet: " + NodeStr(violation.node) +
                 " holds no red pebble at the end";
      break;
  }
  return message;
}

PebbleState::PebbleState(const Graph& graph)
    : graph_(graph),
      num_nodes_(graph.num_nodes()),
      red_(std::make_unique<bool[]>(num_nodes_)),
      blue_(std::make_unique<bool[]>(num_nodes_)) {
  for (const NodeId v : graph.sources()) blue_[v] = true;
}

std::vector<NodeId> PebbleState::UnmetSinks() const {
  std::vector<NodeId> unmet;
  for (const NodeId s : graph_.sinks()) {
    if (!blue(s)) unmet.push_back(s);
  }
  return unmet;
}

}  // namespace wrbpg
