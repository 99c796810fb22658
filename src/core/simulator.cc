#include "core/simulator.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/span.h"

namespace wrbpg {
namespace {

// One counter per rule-violation code ("sim.rule.load-no-blue", ...),
// registered once and indexed by the enum value.
obs::MetricId RuleCounter(SimErrorCode code) {
  static const auto ids = [] {
    std::array<obs::MetricId, std::size(kAllSimErrorCodes)> out{};
    for (const SimErrorCode c : kAllSimErrorCodes) {
      out[static_cast<std::size_t>(c)] =
          obs::RegisterCounter(std::string("sim.rule.") + ToString(c));
    }
    return out;
  }();
  return ids[static_cast<std::size_t>(code)];
}

// Observability totals, recorded once per Simulate() call (never inside
// the per-move loop, so the replay path's throughput is untouched).
void RecordSimMetrics(const SimResult& result, std::size_t moves_applied) {
  static const obs::Counter runs("sim.runs");
  static const obs::Counter moves("sim.moves");
  static const obs::Counter loads("sim.loads");
  static const obs::Counter stores("sim.stores");
  static const obs::Counter computes("sim.computes");
  static const obs::Counter deletes("sim.deletes");
  static const obs::Counter invalid("sim.invalid");
  static const obs::Gauge peak("sim.peak_red_weight");
  runs.Add(1);
  moves.Add(moves_applied);
  loads.Add(result.loads);
  stores.Add(result.stores);
  computes.Add(result.computes);
  deletes.Add(result.deletes);
  if (!result.valid) {
    invalid.Add(1);
    obs::Add(RuleCounter(result.code), 1);
  }
  peak.Max(static_cast<std::uint64_t>(
      std::max<Weight>(result.peak_red_weight, 0)));
}

}  // namespace

SimResult Simulate(const Graph& graph, Weight budget, const Schedule& schedule,
                   const SimOptions& options, const SimObserver& observer) {
  const obs::ScopedSpan span("simulate");
  SimResult result;
  PebbleState state(graph);

  // The single cold path: the diagnostic is composed only on failure, so
  // the per-move loop below stays string-free on valid schedules.
  auto fail = [&](std::size_t index, RuleViolation violation,
                  const Move* move) {
    result.valid = false;
    result.error_index = index;
    result.code = violation.code;
    result.error_node = violation.node;
    result.error =
        DescribeViolation(violation, move, state.red_weight(), budget);
    RecordSimMetrics(result, std::min(index, schedule.size()));
    return result;
  };

  // The Sec 4.1 memory-state games start with extra pebbles in place: an
  // M2 places a blue pebble and an M1 a red one.
  for (NodeId v : options.initial_blue) state.Apply(Store(v));
  for (NodeId v : options.initial_red) state.Apply(Load(v));
  if (state.red_weight() > budget) {
    return fail(0, {SimErrorCode::kInitialRedOverBudget, kInvalidNode},
                nullptr);
  }
  result.peak_red_weight = state.red_weight();

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Move& m = schedule[i];
    const RuleViolation violation = state.Check(m);
    if (violation.code != SimErrorCode::kNone) return fail(i, violation, &m);
    state.Apply(m);
    switch (m.type) {
      case MoveType::kLoad:
        result.cost += graph.weight(m.node);
        ++result.loads;
        break;
      case MoveType::kStore:
        result.cost += graph.weight(m.node);
        ++result.stores;
        break;
      case MoveType::kCompute:
        ++result.computes;
        break;
      case MoveType::kDelete:
        ++result.deletes;
        break;
    }
    if (state.red_weight() > budget) {
      return fail(i, {SimErrorCode::kBudgetExceeded, m.node}, &m);
    }
    result.peak_red_weight =
        std::max(result.peak_red_weight, state.red_weight());
    if (observer) observer(i, m, state.red_weight());
  }

  const std::vector<NodeId> unmet = state.UnmetSinks();
  result.stop_condition_met = unmet.empty();
  if (options.require_stop_condition && !result.stop_condition_met) {
    return fail(schedule.size(),
                {SimErrorCode::kStopConditionUnmet, unmet.front()}, nullptr);
  }
  for (NodeId v : options.required_red_at_end) {
    if (v >= graph.num_nodes() || !state.red(v)) {
      return fail(schedule.size(), {SimErrorCode::kReuseConditionUnmet, v},
                  nullptr);
    }
  }

  result.final_red_weight = state.red_weight();
  result.valid = true;
  RecordSimMetrics(result, schedule.size());
  return result;
}

}  // namespace wrbpg
