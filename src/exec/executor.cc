#include "exec/executor.h"

#include "core/simulator.h"

namespace wrbpg {

ExecResult ExecuteSchedule(const Graph& graph, Weight budget,
                           const Schedule& schedule, const NodeOp& op,
                           const std::vector<double>& source_values) {
  ExecResult result;
  const NodeId n = graph.num_nodes();
  if (source_values.size() < n) {
    result.error = "source_values holds " +
                   std::to_string(source_values.size()) + " values for " +
                   std::to_string(n) + " nodes";
    return result;
  }

  std::vector<double> fast(n, 0.0);
  result.slow_values.assign(n, 0.0);
  result.present.assign(n, 0);
  for (NodeId v : graph.sources()) {
    result.slow_values[v] = source_values[v];
    result.present[v] = 1;
  }

  // The simulator enforces the rules and calls back only after a move was
  // legal and applied, so the observer just moves the data.
  std::vector<double> operands;
  const SimResult sim = Simulate(
      graph, budget, schedule, {}, [&](std::size_t, const Move& m, Weight) {
        const NodeId v = m.node;
        switch (m.type) {
          case MoveType::kLoad:
            fast[v] = result.slow_values[v];
            result.bits_loaded += graph.weight(v);
            break;
          case MoveType::kStore:
            result.slow_values[v] = fast[v];
            result.present[v] = 1;
            result.bits_stored += graph.weight(v);
            break;
          case MoveType::kCompute:
            operands.clear();
            for (NodeId p : graph.parents(v)) operands.push_back(fast[p]);
            fast[v] = op(v, operands);
            break;
          case MoveType::kDelete:
            break;
        }
      });
  result.ok = sim.valid;
  result.error = sim.error;
  result.error_index = sim.error_index;
  result.peak_fast_bits = sim.peak_red_weight;
  return result;
}

}  // namespace wrbpg
