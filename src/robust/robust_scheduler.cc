#include "robust/robust_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/simulator.h"
#include "core/state_bound.h"
#include "ganalysis/bounds.h"
#include "ganalysis/recognition.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/kary_tree.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One link of the fallback chain, described before anything runs so the
// sequential and speculative modes execute the exact same chain.
struct Stage {
  std::string name;
  bool is_exact = false;  // an optimal answer here ends the chain
  bool skipped = false;   // preconditions unmet; engine never started
  std::string skip_detail;
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
  const std::size_t threads = ResolveThreadCount(options.threads);

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
      // and used as the floor of the chain's final lower bound — it
      // subsumes the plain AlgorithmicLowerBound as its base term.
      const obs::ScopedSpan bound_span("robust.prestage.certified_bound");
      cert_lb = BestCertifiedBound(graph_, budget);
    }
    {
      // Tighten with the A* heuristic evaluated at the canonical start
      // state (core/state_bound.h): StartBound sees budget-dependent
      // deadness (a needed compute whose Prop 2.3 footprint exceeds the
      // budget) that the ganalysis certificates cannot, so on tight
      // budgets it can beat them. One chain-owned WideScratch backs every
      // StartBound query this Run() makes — the speculative stages all
      // read the folded `cert_lb`, so the closure buffers are allocated
      // once here, never per stage (and never at all on the <= 32-node
      // packed path, where build_wide is false). An infinite bound means
      // no valid schedule exists at this budget; the stages will each
      // discover that on their own, and folding infinity into a
      // certificate the bb engine treats as finite would be wrong.
      const obs::ScopedSpan start_span("robust.prestage.start_bound");
      StateBound::WideScratch bound_scratch;
      const StateBound start_bound(graph_, budget, /*required_red=*/0,
                                   /*require_sinks_blue=*/true,
                                   /*build_wide=*/false);
      const Weight start_lb = start_bound.StartBound(bound_scratch);
      if (start_lb < kInfiniteCost) cert_lb = std::max(cert_lb, start_lb);
    }
    if (dwt_ == nullptr) {
      // Family recognition for the recognition stage below; a caller
      // holding the DwtGraph already named the family.
      const obs::ScopedSpan recognize_span("robust.prestage.recognize");
      family = RecognizeFamily(graph_);
    }
  }

  std::vector<Stage> stages;

  {
    // Recognition-based routing (DESIGN.md §12): when the graph is a
    // serialized instance of a closed-form family, skip exponential
    // search entirely and answer with the polynomial DP. Recognition is
    // conservative — an unrecognized graph just skips the stage — and a
    // DWT answer is backed by a verified isomorphism onto a reference
    // BuildDwt instance, whose schedule is renamed back through it.
    Stage recog;
    recog.name = "recognition";
    recog.is_exact = true;
    if (dwt_ != nullptr) {
      recog.skipped = true;
      recog.skip_detail =
          "caller already identified the family; the dwt-optimal stage "
          "handles it";
    } else if (!family.recognized()) {
      recog.skipped = true;
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
        recog.engine = [this, budget](const CancelToken*) {
          return KaryTreeScheduler(graph_).Run(budget);
        };
      }
    }
    stages.push_back(std::move(recog));
  }

  {
    Stage exact;
    exact.name = "exact";
    exact.is_exact = true;
    // The bb engine is anytime: under a deadline it always comes back
    // with an incumbent and a certified gap, so graph size is no reason
    // to skip it. Only an UNBOUNDED run on a big graph is vetoed — there
    // the search would burn through max_states before answering.
    if (graph_.num_nodes() > options.exact_max_nodes && !deadlined) {
      exact.skipped = true;
      exact.skip_detail = "graph has " + std::to_string(graph_.num_nodes()) +
                          " nodes > exact_max_nodes " +
                          std::to_string(options.exact_max_nodes) +
                          " and no deadline bounds the search";
    } else {
      exact.engine = [this, budget, &options, threads,
                      cert_lb](const CancelToken* cancel) {
        BruteForceOptions bf;
        bf.engine = SearchEngine::kBranchAndBound;
        bf.max_states = options.exact_max_states;
        bf.cancel = cancel;
        bf.threads = threads;
        bf.force_wide_state = options.exact_force_wide_state;
        // Certified root bound: tightens the REPORTED gap of an
        // interrupted run; schedules stay bit-identical (brute_force.h).
        bf.root_lower_bound = cert_lb;
        return BruteForceScheduler(graph_).Run(budget, bf);
      };
    }
    stages.push_back(std::move(exact));
  }

  if (dwt_ != nullptr) {
    Stage dwt;
    dwt.name = "dwt-optimal";
    dwt.is_exact = true;
    dwt.engine = [this, budget](const CancelToken* cancel) {
      return DwtOptimalScheduler(*dwt_).Run(budget, cancel);
    };
    stages.push_back(std::move(dwt));
  }

  {
    Stage belady;
    belady.name = "belady";
    belady.engine = [this, budget](const CancelToken*) {
      return BeladyScheduler(graph_).Run(budget);
    };
    stages.push_back(std::move(belady));
  }
  {
    Stage greedy;
    greedy.name = "greedy-topo";
    greedy.engine = [this, budget](const CancelToken*) {
      return GreedyTopoScheduler(graph_).Run(budget);
    };
    stages.push_back(std::move(greedy));
  }

  RobustResult out;
  ScheduleResult best;
  std::size_t best_stage = 0;
  bool exact_won = false;  // a PROVEN-optimal answer; stops the chain
  // Tightest lower bound any completed stage certified (the bb engine
  // reports one even when interrupted); folded into the final result so
  // the chain's optimality_gap is sound no matter which stage won.
  Weight chain_lb = 0;

  // The fold: interprets one stage's run in chain order. Both execution
  // modes funnel through these, so the decision procedure (winner, cost,
  // per-stage outcome) cannot drift between them.
  auto push_not_run = [&](const Stage& stage) {
    StageReport report;
    report.name = stage.name;
    report.detail = "earlier stage answered optimally";
    out.stages.push_back(std::move(report));
  };
  auto push_skipped = [&](const Stage& stage, std::string detail) {
    StageReport report;
    report.name = stage.name;
    report.outcome = StageOutcome::kSkipped;
    report.detail = std::move(detail);
    out.stages.push_back(std::move(report));
  };
  auto fold_result = [&](const Stage& stage, ScheduleResult result,
                         double elapsed_ms) {
    // Stage timing is measured where the stage ran (possibly on a pool
    // worker in speculative mode) but filed here on the chain's thread,
    // so it lands as a child of the robust.run span either way.
    obs::RecordSpan(std::string("robust.stage.") + stage.name, elapsed_ms);
    StageReport report;
    report.name = stage.name;
    report.elapsed_ms = elapsed_ms;
    if (result.timed_out) {
      // The engine was interrupted holding nothing — no incumbent, no
      // schedule. Its frontier lower bound is still certified, though.
      report.outcome = StageOutcome::kTimedOut;
      report.detail = "cancelled after " + std::to_string(elapsed_ms) + " ms";
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
  };

  if (threads > 1) {
    // Speculative mode: every runnable stage starts now, so the deadline
    // clock covers the exact search and its fallbacks simultaneously and
    // the exact stages can use the whole deadline instead of a slice.
    // Results are folded in chain order after the pool drains; a stage an
    // exact win obsoletes is reported kNotRun and its result discarded,
    // matching the sequential chain's provenance.
    struct StageRun {
      ScheduleResult result;
      double elapsed_ms = 0;
      CancelToken token;
      bool has_token = false;
    };
    std::vector<StageRun> runs(stages.size());
    ThreadPool pool(std::min(threads, stages.size()));
    TaskGroup group(pool);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      Stage& stage = stages[i];
      if (stage.skipped) continue;
      StageRun& run = runs[i];
      if (deadlined && stage.is_exact) {
        run.token = CancelToken::WithDeadlineMs(remaining_ms());
        run.has_token = true;
      }
      group.Submit([&stage, &run] {
        const Clock::time_point stage_start = Clock::now();
        run.result = stage.engine(run.has_token ? &run.token : nullptr);
        run.elapsed_ms = MsSince(stage_start);
      });
    }
    group.Wait();
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Stage& stage = stages[i];
      if (exact_won) {
        push_not_run(stage);
      } else if (stage.skipped) {
        push_skipped(stage, stage.skip_detail);
      } else {
        fold_result(stage, std::move(runs[i].result), runs[i].elapsed_ms);
      }
    }
  } else {
    for (const Stage& stage : stages) {
      if (exact_won) {
        push_not_run(stage);
        continue;
      }
      if (stage.skipped) {
        push_skipped(stage, stage.skip_detail);
        continue;
      }
      const CancelToken* cancel = nullptr;
      CancelToken token;
      if (deadlined && stage.is_exact) {
        const double slice = remaining_ms() * 0.5;
        if (slice <= 0) {
          push_skipped(stage, "deadline already exhausted");
          continue;
        }
        token = CancelToken::WithDeadlineMs(slice);
        cancel = &token;
      }
      const Clock::time_point stage_start = Clock::now();
      ScheduleResult result = stage.engine(cancel);
      fold_result(stage, std::move(result), MsSince(stage_start));
    }
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
