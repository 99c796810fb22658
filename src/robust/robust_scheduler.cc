#include "robust/robust_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "dataflows/dwt_graph.h"
#include "ganalysis/bounds.h"
#include "ganalysis/recognition.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/kary_tree.h"

namespace wrbpg {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One link of the fallback chain.
struct Stage {
  std::string name;
  bool is_exact = false;    // an optimal answer here ends the chain
  std::string skip_detail;  // non-empty: preconditions unmet, never run
  std::function<ScheduleResult(const CancelToken*)> engine;
};

}  // namespace

const char* ToString(StageOutcome outcome) {
  switch (outcome) {
    case StageOutcome::kNotRun: return "not-run";
    case StageOutcome::kSkipped: return "skipped";
    case StageOutcome::kTimedOut: return "timed-out";
    case StageOutcome::kInfeasible: return "infeasible";
    case StageOutcome::kInvalid: return "invalid";
    case StageOutcome::kCandidate: return "candidate";
    case StageOutcome::kWinner: return "winner";
    case StageOutcome::kAnytimeIncumbent: return "anytime-incumbent";
  }
  return "unknown";
}

RobustResult RobustScheduler::Run(Weight budget,
                                  const RobustOptions& options) const {
  const obs::ScopedSpan span("robust.run");
  const Clock::time_point chain_start = Clock::now();
  const bool deadlined = options.deadline_ms > 0;

  auto remaining_ms = [&] {
    return options.deadline_ms - MsSince(chain_start);
  };

  // The pre-stage runs before any stage and outside the deadline; its
  // span's children show where that time goes.
  Weight cert_lb = 0;
  RecognitionResult family;
  {
    const obs::ScopedSpan prestage("robust.prestage");
    {
      // Certified start-state lower bound (ganalysis/bounds.h): the best
      // of the Prop 2.4 algorithmic bound and the budget-aware
      // hold-or-pay certificates. Fed to the exact stage's reported bound
      // and used as the floor of the chain's final lower bound.
      const obs::ScopedSpan bound_span("robust.prestage.certified_bound");
      cert_lb = BestCertifiedBound(graph_, budget);
    }
    {
      const obs::ScopedSpan recognize_span("robust.prestage.recognize");
      family = RecognizeFamily(graph_);
    }
  }

  // Recognition-based routing (DESIGN.md §12), the chain's one route to
  // the polynomial DPs: when the graph is a serialized instance of a
  // closed-form family, skip exponential search entirely. Recognition is
  // conservative — an unrecognized graph just skips the stage — and a DWT
  // answer is backed by a verified isomorphism onto a reference BuildDwt
  // instance, whose schedule is renamed back through it.
  Stage recog{"recognition", /*is_exact=*/true, "", nullptr};
  if (!family.recognized()) {
    recog.skip_detail = "no closed-form family recognized";
  } else {
    obs::Add(obs::RegisterCounter(std::string("robust.recognized.") +
                                  ToString(family.family)),
             1);
    if (family.family == GraphFamily::kDwt) {
      recog.engine = [this, budget, family = std::move(family)](
                         const CancelToken* cancel) {
        const DwtGraph ref =
            BuildDwt(family.param0, static_cast<int>(family.param1),
                     family.config);
        ScheduleResult result = DwtOptimalScheduler(ref).Run(budget, cancel);
        if (result.feasible) {
          // Rename the reference schedule back onto our node ids
          // through the inverse of the verified isomorphism.
          std::vector<NodeId> from_reference(graph_.num_nodes(),
                                             kInvalidNode);
          for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
            from_reference[family.to_reference[v]] = v;
          }
          std::vector<Move> moves = result.schedule.moves();
          for (Move& move : moves) move.node = from_reference[move.node];
          result.schedule = Schedule(std::move(moves));
        }
        return result;
      };
    } else {
      // chain / kary: the in-tree DP runs on the graph directly.
      recog.engine = [this, budget](const CancelToken* cancel) {
        return KaryTreeScheduler(graph_).Run(budget, cancel);
      };
    }
  }

  Stage exact{"exact", /*is_exact=*/true, "", nullptr};
  // The bb engine is anytime: under a deadline it always comes back with
  // an incumbent and a certified gap, so graph size is no reason to skip
  // it. Only an UNBOUNDED run on a big graph is vetoed — there the search
  // would burn through max_states before answering.
  if (graph_.num_nodes() > options.exact_max_nodes && !deadlined) {
    exact.skip_detail = "graph has " + std::to_string(graph_.num_nodes()) +
                        " nodes > exact_max_nodes " +
                        std::to_string(options.exact_max_nodes) +
                        " and no deadline bounds the search";
  } else {
    exact.engine = [this, budget, &options,
                    cert_lb](const CancelToken* cancel) {
      BruteForceOptions bf;
      bf.engine = SearchEngine::kBranchAndBound;
      bf.max_states = options.exact_max_states;
      bf.cancel = cancel;
      bf.threads = options.threads;
      bf.force_wide_state = options.exact_force_wide_state;
      // Certified root bound: tightens the REPORTED gap of an
      // interrupted run; schedules stay bit-identical (brute_force.h).
      bf.root_lower_bound = cert_lb;
      return BruteForceScheduler(graph_).Run(budget, bf);
    };
  }

  const Stage stages[] = {
      std::move(recog), std::move(exact),
      {"belady", /*is_exact=*/false, "",
       [this, budget](const CancelToken*) {
         return BeladyScheduler(graph_).Run(budget);
       }},
      {"greedy-topo", /*is_exact=*/false, "",
       [this, budget](const CancelToken*) {
         return GreedyTopoScheduler(graph_).Run(budget);
       }},
  };

  RobustResult out;
  ScheduleResult best;
  std::size_t best_stage = 0;
  bool exact_won = false;  // a PROVEN-optimal answer; stops the chain
  // Tightest lower bound any completed stage certified (the bb engine
  // reports one even when interrupted); folded into the final result so
  // the chain's optimality_gap is sound no matter which stage won.
  Weight chain_lb = 0;

  for (const Stage& stage : stages) {
    StageReport report;
    report.name = stage.name;
    if (exact_won) {
      report.detail = "earlier stage answered optimally";
      out.stages.push_back(std::move(report));
      continue;
    }
    std::string skip_detail = stage.skip_detail;
    const CancelToken* cancel = nullptr;
    CancelToken token;
    if (skip_detail.empty() && deadlined && stage.is_exact) {
      // Only the proving stages can run long, so only they are
      // cancellable; each gets half of what remains of the deadline.
      const double slice = remaining_ms() * 0.5;
      if (slice <= 0) {
        skip_detail = "deadline already exhausted";
      } else {
        token = CancelToken::WithDeadlineMs(slice);
        cancel = &token;
      }
    }
    if (!skip_detail.empty()) {
      report.outcome = StageOutcome::kSkipped;
      report.detail = std::move(skip_detail);
      out.stages.push_back(std::move(report));
      continue;
    }

    const Clock::time_point stage_start = Clock::now();
    ScheduleResult result = stage.engine(cancel);
    report.elapsed_ms = MsSince(stage_start);
    obs::RecordSpan(std::string("robust.stage.") + stage.name,
                    report.elapsed_ms);
    if (result.timed_out) {
      // The engine was interrupted holding nothing — no incumbent, no
      // schedule. Its frontier lower bound is still certified, though.
      report.outcome = StageOutcome::kTimedOut;
      report.detail =
          "cancelled after " + std::to_string(report.elapsed_ms) + " ms";
      chain_lb = std::max(chain_lb, result.lower_bound);
    } else if (!result.feasible) {
      report.outcome = StageOutcome::kInfeasible;
    } else {
      const SimResult sim = Simulate(graph_, budget, result.schedule);
      if (!sim.valid) {
        report.outcome = StageOutcome::kInvalid;
        report.detail = "schedule rejected at move " +
                        std::to_string(sim.error_index) + ": " + sim.error;
      } else {
        report.cost = sim.cost;
        result.cost = sim.cost;
        chain_lb = std::max(chain_lb, result.lower_bound);
        // An exact-stage result that was interrupted mid-proof is an
        // anytime incumbent: a valid schedule plus a certified gap, but
        // not a proven optimum — the chain keeps running and its outcome
        // label records the weaker claim.
        const bool proven = result.termination == Termination::kOptimal;
        const bool is_anytime = stage.is_exact && !proven;
        if (is_anytime) {
          report.detail = "anytime incumbent: lb=" +
                          std::to_string(result.lower_bound) + " gap=" +
                          std::to_string(result.optimality_gap) +
                          " termination=" + ToString(result.termination);
        }
        if (!best.feasible || sim.cost < best.cost) {
          if (best.feasible &&
              out.stages[best_stage].outcome == StageOutcome::kWinner) {
            out.stages[best_stage].outcome = StageOutcome::kCandidate;
          }
          best = std::move(result);
          best_stage = out.stages.size();
          report.outcome = is_anytime ? StageOutcome::kAnytimeIncumbent
                                      : StageOutcome::kWinner;
          if (stage.is_exact && proven) exact_won = true;
        } else {
          report.outcome = is_anytime ? StageOutcome::kAnytimeIncumbent
                                      : StageOutcome::kCandidate;
        }
      }
    }
    out.stages.push_back(std::move(report));
  }

  static const obs::Counter runs("robust.runs");
  runs.Add(1);
  if (best.feasible) {
    out.result = std::move(best);
    out.winner = out.stages[best_stage].name;
    // Anytime contract: ship the tightest bound any stage certified,
    // floored at the best ganalysis bound certificate (>= the Prop 2.4
    // algorithmic bound, its base term; heuristic winners carry only the
    // trivial 0 on their own). A gap that closes to zero here is a proof
    // of optimality, whichever stage produced the schedule.
    chain_lb = std::max(chain_lb, cert_lb);
    out.result.lower_bound = std::min(out.result.cost, chain_lb);
    out.result.optimality_gap = out.result.cost - out.result.lower_bound;
    if (out.result.optimality_gap == 0) {
      out.result.termination = Termination::kOptimal;
    }
    // Provenance counter: which stage's schedule the chain shipped.
    obs::Add(obs::RegisterCounter("robust.winner." + out.winner), 1);
    if (out.stages[best_stage].outcome == StageOutcome::kAnytimeIncumbent) {
      static const obs::Counter anytime("robust.winner_anytime");
      anytime.Add(1);
    }
  } else {
    static const obs::Counter no_winner("robust.no_winner");
    no_winner.Add(1);
    out.result = ScheduleResult::Infeasible();
    out.result.timed_out = deadlined && remaining_ms() <= 0;
    if (out.result.timed_out) {
      out.result.termination = Termination::kDeadline;
      out.result.lower_bound = chain_lb;
    }
  }
  return out;
}

}  // namespace wrbpg
