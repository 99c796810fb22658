// Deadline-aware fallback scheduling.
//
// Exact WRBPG solvers are exponential (the red-blue pebble game is
// PSPACE-hard in general), so a production scheduler cannot simply call
// them: it needs an answer by a deadline, preferably the best one any of
// its engines can produce in the time available. RobustScheduler runs a
// ranked chain of engines
//
//   recognition (ganalysis family recognition routes serialized chain /
//                k-ary / DWT instances straight to the polynomial DPs)
//   -> exact (anytime branch-and-bound, any graph size under a deadline)
//   -> dwt-optimal (Algorithm 1, when the caller supplied a DwtGraph)
//   -> belady (furthest-next-use heuristic, any CDAG)
//   -> greedy-topo (Prop 2.3 constructive fallback, always feasible)
//
// under a shared deadline: the exact stage gets a configurable slice of
// the remaining time via a cooperative CancelToken, the polynomial stages
// run to completion (they are micro- to milliseconds). The exact stage is
// the bb engine (DESIGN.md §11): interrupted by its deadline slice it
// returns its incumbent with a certified optimality gap instead of timing
// out, so even huge graphs get an exact-stage answer — provenance
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
#include "dataflows/dwt_graph.h"
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
  // polynomial fallbacks always run, so a result is produced even if the
  // deadline expired during earlier stages. A sequential chain grants the
  // exact stage (the one that can hang) half of the remaining deadline;
  // with no deadline it is bounded only by exact_max_states.
  double deadline_ms = 0;
  // With no deadline, the exact stage is skipped outright beyond this
  // many nodes (the search state space is exponential in n, and nothing
  // would bound the run). Under a deadline the node guard is moot — the
  // bb engine returns its incumbent when the slice expires — so the exact
  // stage runs at ANY size.
  NodeId exact_max_nodes = 22;
  // State-count safety valve for the exact stage (see BruteForceOptions).
  std::size_t exact_max_states = 20'000'000;
  // Worker threads. 1 runs the chain sequentially (today's behavior);
  // anything else runs the stages SPECULATIVELY: every stage is submitted
  // to the pool up front, so the deadline clock overlaps the exact search
  // with the heuristic fallbacks instead of paying for them back to back.
  // Because the fallbacks are then computed "for free", the exact stages
  // get the full deadline rather than half of what remains. The chain's
  // decision procedure is unchanged: stages are folded in chain order
  // after the pool drains, an exact win still reports later stages as
  // not-run (their speculative results are discarded), and with no
  // deadline the result is identical to a sequential run. Under a
  // deadline, which stages finish in time is wall-clock-dependent in
  // either mode; the CancelToken semantics per stage are unchanged. The
  // inner brute-force search inherits this thread count. 0 selects
  // DefaultSearchThreads().
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
  // DWT-aware chain: additionally tries Algorithm 1 (optimal for DWT
  // graphs in polynomial time) between the exact and heuristic stages.
  explicit RobustScheduler(const DwtGraph& dwt)
      : graph_(dwt.graph), dwt_(&dwt) {}

  RobustResult Run(Weight budget, const RobustOptions& options = {}) const;

 private:
  const Graph& graph_;
  const DwtGraph* dwt_ = nullptr;
};

}  // namespace wrbpg
