// Deadline-aware fallback scheduling.
//
// Exact WRBPG solvers are exponential (the red-blue pebble game is
// PSPACE-hard in general), so a production scheduler cannot simply call
// them: it needs an answer by a deadline, preferably the best one any of
// its engines can produce in the time available. RobustScheduler runs a
// ranked chain of engines, one after another,
//
//   recognition (ganalysis family recognition routes serialized chain /
//                k-ary / DWT instances straight to the polynomial DPs;
//                the chain's only route to them)
//   -> exact (anytime branch-and-bound, any graph size under a deadline)
//   -> belady (furthest-next-use heuristic, any CDAG)
//   -> greedy-topo (Prop 2.3 constructive fallback, always feasible)
//
// under a shared deadline: each proving stage (recognition, exact) gets
// half of the remaining time via a cooperative CancelToken, the heuristic
// stages run to completion (they are micro- to milliseconds), and a
// proven-optimal answer ends the chain. The exact stage is the bb engine
// (DESIGN.md §11): interrupted by its deadline slice it returns its
// incumbent with a certified optimality gap instead of timing out, so
// even huge graphs get an exact-stage answer — provenance
// kAnytimeIncumbent — and it is only skipped outright when the graph is
// past exact_max_nodes AND no deadline bounds the search. Every produced
// schedule is re-verified through Simulate before it can win. The result
// carries full provenance — which stage answered, and for every other
// stage whether it timed out, was infeasible, produced a worse schedule,
// or was skipped and why — and the chain's ScheduleResult reports the
// tightest lower bound any stage certified (never below the best
// ganalysis bound certificate, which subsumes the Prop 2.4 algorithmic
// bound), so callers always see a sound optimality_gap.
#pragma once

#include <string>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

enum class StageOutcome : std::uint8_t {
  kNotRun = 0,   // an earlier stage already settled the question
  kSkipped,      // preconditions unmet (see detail), never started
  kTimedOut,     // started, cancelled by its deadline slice
  kInfeasible,   // completed: no schedule under this budget
  kInvalid,      // produced a schedule Simulate rejected (engine bug)
  kCandidate,    // produced a valid schedule, but a better one won
  kWinner,       // produced the returned schedule
  // The exact stage was interrupted but returned its incumbent with a
  // certified gap (see detail) — an anytime answer, not a proven optimum,
  // so the chain keeps running and later stages may still beat it.
  kAnytimeIncumbent,
};

const char* ToString(StageOutcome outcome);

struct StageReport {
  std::string name;
  StageOutcome outcome = StageOutcome::kNotRun;
  double elapsed_ms = 0;
  Weight cost = kInfiniteCost;  // of this stage's schedule, when produced
  std::string detail;           // human-readable skip/timeout reason
};

struct RobustOptions {
  // Total wall-clock deadline for the whole chain; <= 0 disables it. The
  // heuristic fallbacks always run, so a result is produced even if the
  // deadline expired during earlier stages. Each proving stage gets half
  // of the deadline remaining when it starts; with no deadline the exact
  // stage is bounded only by exact_max_states.
  double deadline_ms = 0;
  // With no deadline, the exact stage is skipped outright beyond this
  // many nodes (the search state space is exponential in n, and nothing
  // would bound the run). Under a deadline the node guard is moot — the
  // bb engine returns its incumbent when the slice expires — so the exact
  // stage runs at ANY size.
  NodeId exact_max_nodes = 22;
  // State-count safety valve for the exact stage (see BruteForceOptions).
  std::size_t exact_max_states = 20'000'000;
  // Search threads of the exact stage's bb engine
  // (BruteForceOptions::threads); the stages themselves always run one
  // after another. 0 selects DefaultSearchThreads().
  std::size_t threads = 0;
  // Testing hook mirrored from BruteForceOptions::force_wide_state: route
  // the exact stage's <= 32-node searches through the wide interned-state
  // representation. Results are bit-identical either way (the 3-axis
  // determinism contract, DESIGN.md §11); service/cache differential
  // tests use it to pin hits against cold solves across representations.
  bool exact_force_wide_state = false;
};

struct RobustResult {
  ScheduleResult result;            // best valid schedule found
  std::string winner;               // name of the answering stage
  std::vector<StageReport> stages;  // provenance, in chain order

  const StageReport* stage(const std::string& name) const {
    for (const auto& s : stages) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

class RobustScheduler {
 public:
  explicit RobustScheduler(const Graph& graph) : graph_(graph) {}

  RobustResult Run(Weight budget, const RobustOptions& options = {}) const;

 private:
  const Graph& graph_;
};

}  // namespace wrbpg
