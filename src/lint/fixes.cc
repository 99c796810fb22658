#include "lint/fixes.h"

#include <algorithm>
#include <vector>

#include "core/trace.h"

namespace wrbpg {
namespace {

Schedule DropMoves(const Schedule& schedule,
                   const std::vector<unsigned char>& dropped) {
  std::vector<Move> kept;
  kept.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!dropped[i]) kept.push_back(schedule[i]);
  }
  return Schedule(std::move(kept));
}

}  // namespace

LintFixResult ApplyLintFixes(const Graph& graph, Weight budget,
                             const Schedule& schedule,
                             const LintFixOptions& options) {
  LintFixResult result;
  result.schedule = schedule;
  result.verification = Simulate(graph, budget, schedule);
  if (!result.verification.valid) {
    result.message = "input schedule is invalid (" +
                     std::string(ToString(result.verification.code)) +
                     " at move " +
                     std::to_string(result.verification.error_index) +
                     "); repair it before applying lint fixes";
    return result;
  }
  result.ok = true;
  result.cost_before = result.verification.cost;
  result.cost_after = result.verification.cost;

  const LintOptions lint_options{.graph_rules = false};
  while (result.iterations < options.max_iterations) {
    const LintResult lint =
        LintSchedule(graph, budget, result.schedule, lint_options);
    if (lint.has_errors()) {
      // Cannot happen for a simulator-valid schedule (the soundness
      // contract); bail rather than edit on top of a broken analysis.
      result.message = "internal: linter reported errors on a valid schedule";
      result.ok = false;
      return result;
    }

    // Collect this round's fix-its, skipping any whose moves were already
    // claimed (e.g. a dead-load fix and a spill-churn fix sharing an M4).
    // Spill-churn fixes raise occupancy over their delete..reload window;
    // each one was proven feasible in isolation, but accepted fixes with
    // overlapping windows stack, so track the combined raise and defer any
    // fix the batch no longer has headroom for to a later iteration.
    std::vector<unsigned char> dropped(result.schedule.size(), 0);
    std::vector<Weight> occupancy;  // built on first churn fix only
    std::vector<Weight> raised;
    std::size_t accepted = 0;
    for (const LintDiagnostic& d : lint.diagnostics) {
      if (d.severity != LintSeverity::kWarning || d.fixit.empty()) continue;
      const bool conflict =
          std::any_of(d.fixit.drop_moves.begin(), d.fixit.drop_moves.end(),
                      [&](std::size_t i) { return dropped[i] != 0; });
      if (conflict) continue;
      if (d.rule_id == "spill-churn") {
        if (occupancy.empty()) {
          // result.schedule is simulator-verified, so the trace is complete.
          occupancy =
              TraceOccupancy(graph, budget, result.schedule).occupancy_bits;
          raised.assign(occupancy.size(), 0);
        }
        const std::size_t kill = d.fixit.drop_moves[0];
        const std::size_t def = d.fixit.drop_moves[1];
        const Weight w = graph.weight(d.node);
        bool fits = true;
        for (std::size_t i = kill; i < def && fits; ++i) {
          fits = occupancy[i] + raised[i] + w <= budget;
        }
        if (!fits) continue;
        for (std::size_t i = kill; i < def; ++i) raised[i] += w;
      }
      for (std::size_t i : d.fixit.drop_moves) dropped[i] = 1;
      ++accepted;
    }
    if (accepted == 0) break;
    ++result.iterations;

    const Schedule candidate = DropMoves(result.schedule, dropped);
    const SimResult sim = Simulate(graph, budget, candidate);
    if (!sim.valid || sim.cost > result.cost_after) {
      // Fix-its are individually proven safe, so a failing batch indicates
      // an analyzer bug; never ship an unverified edit.
      result.message = "internal: fix batch failed verification (" +
                       std::string(sim.valid ? "cost increased"
                                             : ToString(sim.code)) +
                       "); keeping the last verified schedule";
      result.ok = false;
      return result;
    }
    result.schedule = candidate;
    result.verification = sim;
    result.cost_after = sim.cost;
    result.fixes_applied += accepted;
    result.changed = true;
  }
  return result;
}

}  // namespace wrbpg
