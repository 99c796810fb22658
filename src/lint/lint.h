// Pass-based static analyzer for WRBPG schedules and graphs.
//
// LintSchedule treats a Schedule as an IR. Pass 1 replays it through the
// rules kernel Simulate() also runs (core/rules.h), but reports every
// violation and continues past it, and adds the rules derived from the
// replay state: non-topological compute, budget infeasibility, and one
// budget-exceeded report per excursion over the budget. Pass 2 attributes
// waste over liveness ranges. O(moves * avg-degree); Simulate() is never
// called.
//
// Severity contract (tested in lint_differential_test.cc):
//   * kError    the schedule is invalid: Simulate() rejects it, and the
//               first kError diagnostic carries the same SimErrorCode,
//               move index, and node as the simulator's report.
//   * kWarning  the schedule is valid but wasteful, and the diagnostic's
//               fix-it (a set of moves to drop) provably preserves
//               validity and never increases cost when applied.
//   * kInfo     advisory: attributed waste or structural observation with
//               no generally safe mechanical fix.
//
// Diagnostics attribute wasted I/O bits per rule, which is what
// bench_lint aggregates to explain why heuristic schedulers lose to the
// optimal ones (dead loads, spill churn, recompute thrash).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "core/rules.h"
#include "core/types.h"
#include "lint/liveness.h"

namespace wrbpg {

enum class LintSeverity : std::uint8_t { kInfo = 0, kWarning, kError };

const char* ToString(LintSeverity severity);

// Registry entry: one per rule, with a stable id ("dead-load") usable in
// CLI output, JSON, and suppression lists.
struct LintRule {
  std::string_view id;
  LintSeverity severity;  // default severity; kWarning rules may degrade
                          // to kInfo on sites where no safe fix exists
  std::string_view description;
};

// All known rules, schedule-level first, then graph-level.
std::span<const LintRule> AllLintRules();

// nullptr when no rule has this id.
const LintRule* FindLintRule(std::string_view id);

// A machine-readable fix: drop exactly these move indices from the
// schedule. Empty = no safe fix for this diagnostic. All fix-its emitted
// by kWarning diagnostics preserve validity and never increase cost (see
// fixes.h for the verified application path).
struct LintFixIt {
  std::vector<std::size_t> drop_moves;

  bool empty() const { return drop_moves.empty(); }
};

struct LintDiagnostic {
  std::string_view rule_id;  // points into the static registry
  LintSeverity severity = LintSeverity::kInfo;
  // Move the diagnostic anchors to; kNoMove for graph-level rules,
  // schedule.size() for end-of-schedule conditions (unmet sinks).
  std::size_t move_index = kNoMove;
  NodeId node = kInvalidNode;
  // I/O bits this rule attributes as wasted (0 when not applicable).
  Weight wasted_bits = 0;
  // For kError: the SimErrorCode of the violated rule.
  SimErrorCode sim_code = SimErrorCode::kNone;
  std::string message;
  LintFixIt fixit = {};
};

struct LintResult {
  // Graph-level diagnostics first, then move-ordered schedule diagnostics
  // (replay errors before derived rules at the same index), then
  // end-of-schedule diagnostics.
  std::vector<LintDiagnostic> diagnostics;

  Weight wasted_bits_total = 0;

  bool has_errors() const;
  std::size_t count(LintSeverity severity) const;
  // First kError in diagnostic order (== lowest move index), or nullptr.
  const LintDiagnostic* first_error() const;
};

struct LintOptions {
  // Include the graph-level rules in LintSchedule's result.
  bool graph_rules = true;
};

// Graph-level lints only: nodes irrelevant to every sink, non-positive
// weights, isolated nodes. O(nodes + edges).
std::vector<LintDiagnostic> LintGraph(const Graph& graph);

// Same, but relevance is judged against a designated output set instead of
// the structural sinks Z(G). Useful for partial pipelines where only some
// sinks matter: nodes with no path to any output are flagged.
std::vector<LintDiagnostic> LintGraph(const Graph& graph,
                                      std::span<const NodeId> outputs);

// The full analysis. Never calls Simulate(); O(moves * avg-degree) plus
// O(moves log moves) only when spill-churn fix feasibility is probed.
LintResult LintSchedule(const Graph& graph, Weight budget,
                        const Schedule& schedule,
                        const LintOptions& options = {});

// One line per diagnostic plus a summary, for CLI/text consumption.
std::string RenderLintResult(const LintResult& result);

// Machine-readable rendering of the same result (stable field names).
std::string LintResultToJson(const LintResult& result);

}  // namespace wrbpg
