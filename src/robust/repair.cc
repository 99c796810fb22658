#include "robust/repair.h"

#include <vector>

#include "core/rules.h"
#include "lint/liveness.h"

namespace wrbpg {
namespace {

// Hard cap on emitted moves, a safety valve against pathological inputs;
// exceeding it makes the input irreparable.
constexpr std::size_t kMaxOutputMoves = std::size_t{1} << 22;

// Replays the input with edits. One instance per RepairSchedule call.
class Repairer {
 public:
  Repairer(const Graph& graph, Weight budget, const Schedule& input)
      : graph_(graph),
        budget_(budget),
        input_(input),
        state_(graph),
        pinned_(graph.num_nodes(), 0),
        // refs_.remaining(v) counts how often the rest of the input still
        // mentions v — as a move's own node or as a parent of a computed
        // node. Eviction prefers values the input never touches again.
        refs_(graph, input) {}

  RepairResult Run() {
    RepairResult result;
    for (std::size_t i = 0; i < input_.size() && !failed_; ++i) {
      input_index_ = i;
      const Move m = input_[i];
      ConsumeRefs(m);
      const std::size_t before = out_.size();
      const bool kept = Translate(m);
      if (failed_) break;
      if (kept) {
        ++result.moves_kept;
        result.moves_inserted += out_.size() - before - 1;
      } else {
        ++result.moves_dropped;
        result.moves_inserted += out_.size() - before;
      }
    }
    if (!failed_) {
      input_index_ = input_.size();
      const std::size_t before = out_.size();
      FinishStopCondition();
      result.moves_inserted += out_.size() - before;
    }

    if (failed_) {
      result.status = RepairStatus::kIrreparable;
      result.code = fail_code_;
      result.node = fail_node_;
      result.input_index = input_index_;
      result.message = fail_message_;
      return result;
    }
    result.schedule = Schedule(std::move(out_));
    result.verification = Simulate(graph_, budget_, result.schedule);
    result.status = RepairStatus::kRepaired;
    return result;
  }

 private:
  void Fail(SimErrorCode code, NodeId node, std::string message) {
    if (failed_) return;
    failed_ = true;
    fail_code_ = code;
    fail_node_ = node;
    fail_message_ = std::move(message);
  }

  // The input move at the current index is no longer "future"; update the
  // next-reference counts before deciding how to translate it.
  void ConsumeRefs(const Move& m) { refs_.Consume(m); }

  // Appends a legal move to the output and applies it to the state.
  bool Emit(Move m) {
    if (out_.size() >= kMaxOutputMoves) {
      Fail(SimErrorCode::kNone, m.node,
           "repair exceeded " + std::to_string(kMaxOutputMoves) +
               " output moves");
      return false;
    }
    out_.push_back(m);
    state_.Apply(m);
    return true;
  }

  // Frees room for `need` more bits of red weight. Victims are unpinned
  // resident reds: first those the input never references again (lightest
  // first), then lightest overall. Victims that may still be needed — a
  // future reference or an unfinished sink — are stored before deletion so
  // the value survives in slow memory.
  bool EvictUntil(Weight need, NodeId for_node) {
    while (state_.red_weight() + need > budget_) {
      NodeId victim = kInvalidNode;
      bool victim_dead = false;
      for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
        if (!state_.red(v) || pinned_[v] != 0) continue;
        const bool dead = refs_.remaining(v) == 0 &&
                          (state_.blue(v) || !graph_.is_sink(v));
        if (victim == kInvalidNode || (dead && !victim_dead) ||
            (dead == victim_dead && graph_.weight(v) < graph_.weight(victim))) {
          victim = v;
          victim_dead = dead;
        }
      }
      if (victim == kInvalidNode) {
        Fail(SimErrorCode::kBudgetExceeded, for_node,
             "working set for v" + std::to_string(for_node) + " cannot fit: " +
                 std::to_string(state_.red_weight() + need) +
                 " > budget " + std::to_string(budget_) +
                 " with no evictable resident value");
        return false;
      }
      if (!victim_dead && !state_.blue(victim) && !Emit(Store(victim))) {
        return false;
      }
      if (!Emit(Delete(victim))) return false;
    }
    return true;
  }

  // Places a red pebble on v via `move` (M1 or M3), evicting to fit.
  bool Place(NodeId v, Move move) {
    return EvictUntil(graph_.weight(v), v) && Emit(move);
  }

  // True when `move` is legal in the current state.
  bool Legal(const Move& move) const {
    return state_.Check(move).code == SimErrorCode::kNone;
  }

  // Computes v with its (already red) parents pinned, so the eviction that
  // makes room for v cannot break the M3 precondition.
  bool ComputePinned(NodeId v) {
    const auto parents = graph_.parents(v);
    for (NodeId p : parents) ++pinned_[p];
    const bool ok = Place(v, Compute(v));
    for (NodeId p : parents) --pinned_[p];
    return ok;
  }

  // Makes v red by the cheapest legal preparation: a free M3 when the
  // parents are resident, an M1 when a blue copy exists, else recursive
  // materialization of the parents. Parents are pinned while a compute is
  // in flight so eviction cannot break the precondition.
  bool EnsureRed(NodeId v) {
    if (state_.red(v)) return true;
    // Prefer the free compute whenever it is immediately legal (M3 costs
    // nothing, M1 costs w_v).
    if (Legal(Compute(v))) return ComputePinned(v);
    if (Legal(Load(v))) return Place(v, Load(v));
    // Not red, not blue: v is a non-source (sources are always blue).
    // Rebuild the parents, keeping each resident until v is computed.
    const auto parents = graph_.parents(v);
    std::size_t pinned_count = 0;
    bool ok = true;
    for (NodeId p : parents) {
      if (!EnsureRed(p)) {
        ok = false;
        break;
      }
      ++pinned_[p];
      ++pinned_count;
    }
    if (ok) ok = Place(v, Compute(v));
    for (std::size_t i = 0; i < pinned_count; ++i) --pinned_[parents[i]];
    return ok;
  }

  // Translates one input move; returns true when the move itself survived
  // into the output (possibly with preparation inserted before it).
  bool Translate(const Move& m) {
    const NodeId v = m.node;
    if (v >= graph_.num_nodes()) return false;  // drop unmappable moves
    switch (m.type) {
      case MoveType::kLoad:
      case MoveType::kCompute: {
        if (state_.red(v)) return false;  // effect already holds; drop
        if (m.type == MoveType::kCompute && graph_.is_source(v)) {
          return false;  // sources cannot be computed; drop
        }
        const std::size_t before = out_.size();
        if (!EnsureRed(v)) return false;
        // Kept iff the final placement is literally this move.
        return out_.size() > before && out_.back() == m;
      }
      case MoveType::kStore:
        if (state_.blue(v)) return false;  // already stored; drop
        return EnsureRed(v) && Emit(m);
      case MoveType::kDelete:
        if (!Legal(m)) return false;  // nothing to delete; drop
        return Emit(m);
    }
    return false;
  }

  // Restores the stopping condition: every sink ends with a blue pebble.
  void FinishStopCondition() {
    for (NodeId s : graph_.sinks()) {
      if (failed_ || state_.blue(s)) continue;
      if (!EnsureRed(s) || !Emit(Store(s))) return;
    }
  }

  const Graph& graph_;
  const Weight budget_;
  const Schedule& input_;

  PebbleState state_;
  std::vector<int> pinned_;  // >0: excluded from eviction
  MoveRefCounts refs_;
  std::vector<Move> out_;
  std::size_t input_index_ = 0;

  bool failed_ = false;
  SimErrorCode fail_code_ = SimErrorCode::kNone;
  NodeId fail_node_ = kInvalidNode;
  std::string fail_message_;
};

}  // namespace

const char* ToString(RepairStatus status) {
  switch (status) {
    case RepairStatus::kAlreadyValid: return "already-valid";
    case RepairStatus::kRepaired: return "repaired";
    case RepairStatus::kIrreparable: return "irreparable";
  }
  return "unknown";
}

RepairResult RepairSchedule(const Graph& graph, Weight budget,
                            const Schedule& input) {
  SimResult sim = Simulate(graph, budget, input);
  if (sim.valid) {
    RepairResult result;
    result.status = RepairStatus::kAlreadyValid;
    result.schedule = input;
    result.verification = std::move(sim);
    result.moves_kept = input.size();
    return result;
  }

  RepairResult result = Repairer(graph, budget, input).Run();
  if (result.status == RepairStatus::kRepaired &&
      !result.verification.valid) {
    // Defense in depth: a repair that fails re-simulation is reported as a
    // structured failure, never returned as a schedule.
    result.status = RepairStatus::kIrreparable;
    result.code = result.verification.code;
    result.node = result.verification.error_node;
    result.input_index = result.verification.error_index;
    result.message = "internal: repaired schedule failed verification: " +
                     result.verification.error;
    result.schedule = Schedule();
  }
  return result;
}

}  // namespace wrbpg
