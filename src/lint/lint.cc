#include "lint/lint.h"

#include "ganalysis/ganalysis.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>
#include <sstream>

namespace wrbpg {
namespace {

// Schedule-level rules first, then graph-level; ids are stable API.
constexpr LintRule kRules[] = {
    {"node-out-of-range", LintSeverity::kError,
     "move names a node outside the graph"},
    {"invalid-load", LintSeverity::kError,
     "M1 without a blue pebble to copy, or onto a node already red"},
    {"invalid-store", LintSeverity::kError,
     "M2 without a red pebble to copy, or onto a node already blue"},
    {"invalid-compute", LintSeverity::kError,
     "M3 on a source, onto a node already red, or with a non-red parent"},
    {"invalid-delete", LintSeverity::kError,
     "M4 with no red pebble to delete"},
    {"budget-exceeded", LintSeverity::kError,
     "weighted red pebble constraint violated (Definition 2.1)"},
    {"budget-infeasible", LintSeverity::kError,
     "a single compute's working set exceeds the budget (Proposition 2.3)"},
    {"non-topological-compute", LintSeverity::kError,
     "node computed before one of its parents was ever computed"},
    {"stop-condition-unmet", LintSeverity::kError,
     "a sink never receives a blue pebble"},
    {"dead-load", LintSeverity::kWarning,
     "loaded value never read before its delete or the end of the schedule"},
    {"dead-compute", LintSeverity::kWarning,
     "computed value never read and never stored"},
    {"dead-store", LintSeverity::kWarning,
     "stored value never reloaded and not a sink"},
    {"spill-churn", LintSeverity::kWarning,
     "value deleted then reloaded (load-after-delete thrash)"},
    {"redundant-recompute", LintSeverity::kInfo,
     "value recomputed after an earlier residency was dropped"},
    {"graph-irrelevant-node", LintSeverity::kInfo,
     "node has no path to any sink; every move on it is wasted"},
    {"graph-nonpositive-weight", LintSeverity::kInfo,
     "node weight is not positive, violating the Sec 2.1 model"},
    {"graph-isolated-node", LintSeverity::kInfo,
     "node is both a source and a sink"},
};

std::string NodeStr(NodeId v) { return "v" + std::to_string(v); }

// Range-maximum queries over the post-move occupancy series, built lazily:
// only spill-churn fix feasibility needs them.
class OccupancyRmq {
 public:
  explicit OccupancyRmq(const std::vector<Weight>& series) {
    const std::size_t n = series.size();
    const std::size_t levels =
        n == 0 ? 1 : static_cast<std::size_t>(std::bit_width(n));
    table_.assign(levels, series);
    for (std::size_t k = 1; k < table_.size(); ++k) {
      const std::size_t half = std::size_t{1} << (k - 1);
      for (std::size_t i = 0; i + (half << 1) <= n; ++i) {
        table_[k][i] = std::max(table_[k - 1][i], table_[k - 1][i + half]);
      }
    }
  }

  // Max over [lo, hi); requires lo < hi <= series size.
  Weight MaxIn(std::size_t lo, std::size_t hi) const {
    const std::size_t k =
        static_cast<std::size_t>(std::bit_width(hi - lo) - 1);
    return std::max(table_[k][lo], table_[k][hi - (std::size_t{1} << k)]);
  }

 private:
  std::vector<std::vector<Weight>> table_;
};

}  // namespace

const char* ToString(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

std::span<const LintRule> AllLintRules() { return kRules; }

const LintRule* FindLintRule(std::string_view id) {
  for (const LintRule& rule : kRules) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

bool LintResult::has_errors() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const LintDiagnostic& d) {
                       return d.severity == LintSeverity::kError;
                     });
}

std::size_t LintResult::count(LintSeverity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const LintDiagnostic& d) {
                      return d.severity == severity;
                    }));
}

const LintDiagnostic* LintResult::first_error() const {
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == LintSeverity::kError) return &d;
  }
  return nullptr;
}

std::vector<LintDiagnostic> LintGraph(const Graph& graph) {
  return LintGraph(graph, graph.sinks());
}

std::vector<LintDiagnostic> LintGraph(const Graph& graph,
                                      std::span<const NodeId> outputs) {
  // The graph-level rules live in the static graph analyzer (ganalysis
  // "structure" pass registry); convert its facts into lint diagnostics so
  // the lint API, rule ids, and messages are unchanged.
  std::vector<LintDiagnostic> diags;
  for (const GraphFact& fact : RunStructureRules(graph, outputs)) {
    const LintRule* rule = FindLintRule(fact.pass_id);
    diags.push_back({.rule_id = rule != nullptr ? rule->id : fact.pass_id,
                     .severity = fact.severity == FactSeverity::kWarning
                                     ? LintSeverity::kWarning
                                     : LintSeverity::kInfo,
                     .node = fact.node,
                     .message = fact.message});
  }
  return diags;
}

LintResult LintSchedule(const Graph& graph, Weight budget,
                        const Schedule& schedule, const LintOptions& options) {
  LintResult result;
  if (options.graph_rules) result.diagnostics = LintGraph(graph);

  const NodeId n = graph.num_nodes();
  const std::size_t t = schedule.size();

  // --- Pass 1: replay through the rules kernel, reporting every violation
  // and continuing past it (PebbleState::Apply is idempotent), then the
  // derived rules that need the replay state.
  std::vector<LintDiagnostic> replay_diags;
  auto error = [&](std::string_view rule, SimErrorCode code, std::size_t index,
                   NodeId node, std::string message) {
    replay_diags.push_back({.rule_id = rule,
                            .severity = LintSeverity::kError,
                            .move_index = index,
                            .node = node,
                            .sim_code = code,
                            .message = std::move(message)});
  };
  // The kernel's violations of an in-range move, by move type.
  constexpr std::string_view kMoveRule[] = {"invalid-load", "invalid-store",
                                            "invalid-compute",
                                            "invalid-delete"};

  PebbleState state(graph);
  std::vector<unsigned char> computed(n, 0);
  bool over_budget = false;
  std::vector<Weight> occupancy(t, 0);  // after each move
  // In-range stores seen, for the dead-store rule.
  std::vector<std::pair<std::size_t, NodeId>> stores;

  for (std::size_t i = 0; i < t; ++i) {
    const Move& m = schedule[i];
    const NodeId v = m.node;
    const RuleViolation violation = state.Check(m);
    if (violation.code != SimErrorCode::kNone) {
      error(violation.code == SimErrorCode::kNodeOutOfRange
                ? "node-out-of-range"
                : kMoveRule[static_cast<std::size_t>(m.type)],
            violation.code, i, violation.node,
            DescribeViolation(violation, &m));
    }
    if (v >= n) {
      occupancy[i] = state.red_weight();
      continue;
    }
    if (m.type == MoveType::kCompute && !graph.is_source(v)) {
      // Derived rules, emitted after the kernel's report so the first
      // kError always matches the simulator's exactly.
      for (NodeId p : graph.parents(v)) {
        if (!graph.is_source(p) && !computed[p]) {
          error("non-topological-compute", SimErrorCode::kComputeParentNotRed,
                i, p,
                ToString(m) + ": computed before its parent " + NodeStr(p) +
                    "; the compute order is not topological");
          break;
        }
      }
      Weight working = graph.weight(v);
      for (NodeId p : graph.parents(v)) working += graph.weight(p);
      if (working > budget) {
        error("budget-infeasible", SimErrorCode::kBudgetExceeded, i, v,
              ToString(m) + ": working set " + std::to_string(working) +
                  " bits exceeds budget " + std::to_string(budget) +
                  "; by Proposition 2.3 no valid schedule contains this "
                  "compute");
      }
      computed[v] = 1;
    }
    state.Apply(m);
    if (m.type == MoveType::kStore && !graph.is_sink(v) &&
        !graph.is_source(v)) {
      stores.emplace_back(i, v);
    }
    // Edge-triggered: one report per excursion over the budget.
    const bool over = state.red_weight() > budget;
    if (over && !over_budget) {
      error("budget-exceeded", SimErrorCode::kBudgetExceeded, i, v,
            DescribeViolation({SimErrorCode::kBudgetExceeded, v}, &m,
                              state.red_weight(), budget));
    }
    over_budget = over;
    occupancy[i] = state.red_weight();
  }

  // --- Pass 2: liveness-based waste rules over the def/use chains.
  const MoveLiveness live(graph, schedule);
  std::vector<LintDiagnostic> waste_diags;
  auto waste = [&](std::string_view rule, LintSeverity severity,
                   std::size_t index, NodeId node, Weight bits,
                   std::string message, LintFixIt fixit = {}) {
    waste_diags.push_back({.rule_id = rule,
                           .severity = severity,
                           .move_index = index,
                           .node = node,
                           .wasted_bits = bits,
                           .message = std::move(message),
                           .fixit = std::move(fixit)});
  };
  // Built on first demand; only spill-churn feasibility needs range maxima.
  std::unique_ptr<OccupancyRmq> rmq;

  // Load-def positions per node, for the dead-store reload query.
  std::vector<std::vector<std::size_t>> load_defs(n);
  for (const LiveRange& r : live.ranges()) {
    if (r.def_type == MoveType::kLoad) load_defs[r.node].push_back(r.def);
  }

  for (const LiveRange& r : live.ranges()) {
    const Weight w = graph.weight(r.node);
    if (r.use_count == 0) {
      LintFixIt fix{{r.def}};
      if (r.kill != kNoMove) fix.drop_moves.push_back(r.kill);
      if (r.def_type == MoveType::kLoad) {
        waste("dead-load", LintSeverity::kWarning, r.def, r.node, w,
              NodeStr(r.node) + " loaded but never read before " +
                  (r.kill == kNoMove ? std::string("the end of the schedule")
                                     : "its delete at move " +
                                           std::to_string(r.kill)) +
                  "; " + std::to_string(w) + " bits of I/O wasted",
              std::move(fix));
      } else {
        waste("dead-compute", LintSeverity::kWarning, r.def, r.node, 0,
              NodeStr(r.node) +
                  " computed but never read and never stored",
              std::move(fix));
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    const auto range_ids = live.ranges_of(v);
    for (std::size_t k = 1; k < range_ids.size(); ++k) {
      const LiveRange& prev = live.ranges()[range_ids[k - 1]];
      const LiveRange& r = live.ranges()[range_ids[k]];
      if (r.use_count == 0) continue;  // dead-load/dead-compute dominates
      const Weight w = graph.weight(v);
      if (r.def_type == MoveType::kLoad) {
        // Spill churn: the value was resident, dropped at prev.kill, and
        // fetched again. Keeping it resident is safe exactly when every
        // snapshot in between still has w bits of headroom.
        LintFixIt fix;
        bool fixable = false;
        if (prev.kill != kNoMove && prev.kill < r.def) {
          if (!rmq) rmq = std::make_unique<OccupancyRmq>(occupancy);
          fixable = rmq->MaxIn(prev.kill, r.def) + w <= budget;
          if (fixable) fix.drop_moves = {prev.kill, r.def};
        }
        waste("spill-churn",
              fixable ? LintSeverity::kWarning : LintSeverity::kInfo, r.def,
              v, w,
              NodeStr(v) + " deleted at move " + std::to_string(prev.kill) +
                  " and reloaded at move " + std::to_string(r.def) + "; " +
                  std::to_string(w) + " bits of I/O wasted" +
                  (fixable ? "" : " (no headroom to keep it resident)"),
              std::move(fix));
      } else {
        // Redundant recompute: attribute the loads that exist solely to
        // rebuild this value's parents.
        Weight reload_bits = 0;
        for (NodeId p : graph.parents(v)) {
          const LiveRange* pr = live.RangeAt(p, r.def);
          if (pr != nullptr && pr->def_type == MoveType::kLoad &&
              pr->use_count == 1) {
            reload_bits += graph.weight(p);
          }
        }
        waste("redundant-recompute", LintSeverity::kInfo, r.def, v,
              reload_bits,
              NodeStr(v) + " recomputed at move " + std::to_string(r.def) +
                  (reload_bits > 0
                       ? "; parent loads serving only this recompute waste " +
                             std::to_string(reload_bits) + " bits"
                       : ""));
      }
    }
  }

  for (const auto& [index, v] : stores) {
    const auto& defs = load_defs[v];
    const bool reloaded =
        std::upper_bound(defs.begin(), defs.end(), index) != defs.end();
    if (reloaded) continue;
    waste("dead-store", LintSeverity::kWarning, index, v, graph.weight(v),
          NodeStr(v) + " stored but never reloaded (and not a sink); " +
              std::to_string(graph.weight(v)) + " bits of I/O wasted",
          LintFixIt{{index}});
  }

  // --- Merge: replay diagnostics already move-ordered; waste diagnostics
  // sorted and appended so errors precede derived rules at equal indices.
  std::stable_sort(waste_diags.begin(), waste_diags.end(),
                   [](const LintDiagnostic& a, const LintDiagnostic& b) {
                     return a.move_index < b.move_index;
                   });
  std::vector<LintDiagnostic> merged;
  merged.reserve(replay_diags.size() + waste_diags.size());
  std::merge(std::make_move_iterator(replay_diags.begin()),
             std::make_move_iterator(replay_diags.end()),
             std::make_move_iterator(waste_diags.begin()),
             std::make_move_iterator(waste_diags.end()),
             std::back_inserter(merged),
             [](const LintDiagnostic& a, const LintDiagnostic& b) {
               return a.move_index < b.move_index;
             });
  for (LintDiagnostic& d : merged) {
    result.diagnostics.push_back(std::move(d));
  }

  // --- End-of-schedule: every unmet sink, ascending, so the first report
  // matches Simulate() exactly.
  for (const NodeId s : state.UnmetSinks()) {
    const RuleViolation unmet{SimErrorCode::kStopConditionUnmet, s};
    result.diagnostics.push_back(
        {.rule_id = "stop-condition-unmet",
         .severity = LintSeverity::kError,
         .move_index = t,
         .node = s,
         .sim_code = unmet.code,
         .message = DescribeViolation(unmet, nullptr)});
  }

  for (const LintDiagnostic& d : result.diagnostics) {
    result.wasted_bits_total += d.wasted_bits;
  }
  return result;
}

std::string RenderLintResult(const LintResult& result) {
  std::ostringstream out;
  for (const LintDiagnostic& d : result.diagnostics) {
    out << ToString(d.severity) << "[" << d.rule_id << "]";
    if (d.move_index != kNoMove) out << " move " << d.move_index;
    if (d.node != kInvalidNode) out << " (v" << d.node << ")";
    out << ": " << d.message;
    if (!d.fixit.empty()) {
      out << " [fix: drop " << d.fixit.drop_moves.size() << " move"
          << (d.fixit.drop_moves.size() == 1 ? "" : "s") << "]";
    }
    out << "\n";
  }
  out << result.count(LintSeverity::kError) << " error(s), "
      << result.count(LintSeverity::kWarning) << " warning(s), "
      << result.count(LintSeverity::kInfo) << " info(s); "
      << result.wasted_bits_total << " wasted I/O bits\n";
  return out.str();
}

namespace {

void JsonEscape(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string LintResultToJson(const LintResult& result) {
  std::ostringstream out;
  out << "{\"errors\":" << result.count(LintSeverity::kError)
      << ",\"warnings\":" << result.count(LintSeverity::kWarning)
      << ",\"infos\":" << result.count(LintSeverity::kInfo)
      << ",\"wasted_bits\":" << result.wasted_bits_total
      << ",\"diagnostics\":[";
  bool first = true;
  for (const LintDiagnostic& d : result.diagnostics) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":";
    JsonEscape(out, d.rule_id);
    out << ",\"severity\":";
    JsonEscape(out, ToString(d.severity));
    out << ",\"move\":";
    if (d.move_index == kNoMove) {
      out << "null";
    } else {
      out << d.move_index;
    }
    out << ",\"node\":";
    if (d.node == kInvalidNode) {
      out << "null";
    } else {
      out << d.node;
    }
    out << ",\"wasted_bits\":" << d.wasted_bits << ",\"sim_code\":";
    JsonEscape(out, ToString(d.sim_code));
    out << ",\"message\":";
    JsonEscape(out, d.message);
    out << ",\"fix_drop_moves\":[";
    for (std::size_t i = 0; i < d.fixit.drop_moves.size(); ++i) {
      if (i > 0) out << ",";
      out << d.fixit.drop_moves[i];
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace wrbpg
