#include "service_path.h"

#include <algorithm>
#include <utility>

#include "core/binio.h"
#include "core/simulator.h"
#include "core/state_bound.h"
#include "dataflows/dwt_graph.h"
#include "ganalysis/bounds.h"
#include "ganalysis/canonical.h"
#include "ganalysis/recognition.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/kary_tree.h"

namespace perfbench {
namespace {

using wrbpg::Graph;
using wrbpg::Weight;

// Re-times the robust chain of a miss and what it ran, under `serve`.
void RetimeChain(const Graph& graph, Weight budget, double deadline_ms,
                 const wrbpg::ServiceResponse& response, std::int64_t serve,
                 std::uint64_t id, Trace& trace) {
  wrbpg::RobustOptions options = SingleThreadedService().robust;
  options.deadline_ms = deadline_ms;
  wrbpg::RobustResult rerun;
  const std::int64_t run = trace.Time(id, serve, "robust.run", [&] {
    rerun = wrbpg::RobustScheduler(graph).Run(budget, options);
  });
  trace.Count("robust.runs", 1);
  trace.Count("robust.winner." + response.winner, 1);

  Weight cert_lb = 0;
  Weight start_lb = 0;
  wrbpg::RecognitionResult family;
  trace.Time(id, run, "ganalysis.certified_bound",
             [&] { cert_lb = wrbpg::BestCertifiedBound(graph, budget); });
  trace.Time(id, run, "core.start_bound", [&] {
    wrbpg::StateBound::WideScratch scratch;
    const wrbpg::StateBound bound(graph, budget, /*required_red=*/0,
                                  /*require_sinks_blue=*/true,
                                  /*build_wide=*/false);
    start_lb = bound.StartBound(scratch);
  });
  trace.Time(id, run, "ganalysis.recognize",
             [&] { family = wrbpg::RecognizeFamily(graph); });
  if (start_lb < wrbpg::kInfiniteCost) cert_lb = std::max(cert_lb, start_lb);

  // The chain simulates every schedule a stage hands back (fold_result in
  // robust_scheduler.cc); each such Simulate is re-timed on the schedule
  // the re-timed stage call returned.
  auto simulate = [&](const Graph& on, const wrbpg::ScheduleResult& result) {
    if (!result.feasible) return;
    trace.Time(id, run, "core.simulate",
               [&] { (void)wrbpg::Simulate(on, budget, result.schedule); });
    trace.Count("core.simulate.moves",
                static_cast<double>(result.schedule.size()));
  };
  for (const wrbpg::StageReport& stage : rerun.stages) {
    if (stage.outcome == wrbpg::StageOutcome::kNotRun ||
        stage.outcome == wrbpg::StageOutcome::kSkipped) {
      continue;
    }
    const bool produced = stage.outcome != wrbpg::StageOutcome::kTimedOut &&
                          stage.outcome != wrbpg::StageOutcome::kInfeasible;
    const std::int64_t span = trace.AddMeasured(
        id, run, "robust.stage." + stage.name, stage.elapsed_ms);
    wrbpg::ScheduleResult produced_result;
    if (stage.name == "exact" && options.deadline_ms <= 0) {
      // The exact stage's own options (robust_scheduler.cc), so the
      // search and its SearchStats are the ones the chain produced.
      wrbpg::SearchStats stats;
      wrbpg::BruteForceOptions bf;
      bf.engine = wrbpg::SearchEngine::kBranchAndBound;
      bf.max_states = options.exact_max_states;
      bf.threads = 1;
      bf.root_lower_bound = cert_lb;
      bf.stats = &stats;
      trace.Time(id, span, "schedulers.search", [&] {
        produced_result = wrbpg::BruteForceScheduler(graph).Run(budget, bf);
      });
      trace.Count("schedulers.expanded", static_cast<double>(stats.expanded));
      trace.Count("schedulers.solves", 1);
      trace.Count("schedulers.cap_hits", produced_result.termination ==
                                             wrbpg::Termination::kMemoryCap);
      if (produced) simulate(graph, produced_result);
    } else if (stage.name == "exact") {
      // Under a deadline the search is not repeatable; the re-run's own
      // answer is its schedule when it won. A losing deadline incumbent's
      // Simulate stays unattributed.
      if (produced && rerun.winner == "exact") simulate(graph, rerun.result);
    } else if (stage.name == "recognition" && family.recognized()) {
      if (family.family == wrbpg::GraphFamily::kDwt) {
        const wrbpg::DwtGraph ref =
            wrbpg::BuildDwt(family.param0, static_cast<int>(family.param1),
                            family.config);
        trace.Time(id, span, "schedulers.dp", [&] {
          produced_result = wrbpg::DwtOptimalScheduler(ref).Run(budget);
        });
        // The chain renames this schedule onto the request's labeling
        // before simulating it; the reference graph is the same instance.
        if (produced) simulate(ref.graph, produced_result);
      } else {
        trace.Time(id, span, "schedulers.dp", [&] {
          produced_result = wrbpg::KaryTreeScheduler(graph).Run(budget);
        });
        if (produced) simulate(graph, produced_result);
      }
    } else if (stage.name == "belady" || stage.name == "greedy-topo") {
      trace.Time(id, span, "schedulers.heuristic", [&] {
        produced_result =
            stage.name == "belady"
                ? wrbpg::BeladyScheduler(graph).Run(budget)
                : wrbpg::GreedyTopoScheduler(graph).Run(budget);
      });
      if (produced) simulate(graph, produced_result);
    }
  }
}

}  // namespace

wrbpg::ServiceOptions SingleThreadedService() {
  wrbpg::ServiceOptions options;
  options.threads = 1;
  options.robust.threads = 1;
  return options;
}

Served ServeTimed(wrbpg::ScheduleService& service, const Request& request,
                  const Graph* stored, std::uint64_t id, Trace* trace) {
  Served out;
  wrbpg::ServiceStats before;
  if (trace != nullptr) before = service.stats();

  const double deadline_ms = request.deadline_ms * HostRatio();
  const Clock::time_point start = Clock::now();
  wrbpg::GraphParseResult parsed = wrbpg::ParseGraphBinary(request.bytes);
  const Clock::time_point decoded = Clock::now();
  if (parsed.ok) {
    out.response = service.Serve(
        wrbpg::ServiceRequest{&parsed.graph, request.budget, deadline_ms});
  }
  const Clock::time_point end = Clock::now();

  out.latency_ms = MsBetween(start, end);
  out.decoded = parsed.ok;
  out.graph = std::move(parsed.graph);
  if (trace == nullptr || !out.decoded) return out;

  const wrbpg::ServiceStats after = service.stats();
  trace->Count("service.hits",
               static_cast<double>(after.cache_hits - before.cache_hits));
  trace->Count("service.iso_hits",
               static_cast<double>(after.iso_hits - before.iso_hits));
  trace->Count("service.solves",
               static_cast<double>(after.solves - before.solves));

  const std::int64_t root = trace->Add(id, -1, "request", start, end, false);
  trace->Add(id, root, "core.decode", start, decoded, false);
  const std::int64_t serve =
      trace->Add(id, root, "service.serve", decoded, end, false);
  const Graph& graph = out.graph;
  const Weight budget = request.budget;
  trace->Time(id, serve, "ganalysis.hash", [&] {
    (void)wrbpg::ScheduleService::DeriveKey(graph, budget);
  });
  trace->Time(id, serve, "core.to_binary",
              [&] { (void)wrbpg::ToBinary(graph); });

  const wrbpg::ServiceResponse& response = out.response;
  switch (response.source) {
    case wrbpg::ServeSource::kCacheHit:
      break;
    case wrbpg::ServeSource::kIsoCacheHit:
      if (stored != nullptr) {
        trace->Time(id, serve, "ganalysis.isomorphism",
                    [&] { (void)wrbpg::FindIsomorphism(*stored, graph); });
      }
      trace->Time(id, serve, "core.simulate", [&] {
        (void)wrbpg::Simulate(graph, budget, response.result.schedule);
      });
      trace->Count("core.simulate.moves",
                   static_cast<double>(response.result.schedule.size()));
      break;
    case wrbpg::ServeSource::kSolved:
    case wrbpg::ServeSource::kDedup:
      // A miss encodes the graph again and the schedule for the cache
      // entry, then runs the chain.
      trace->Time(id, serve, "core.to_binary", [&] {
        (void)wrbpg::ToBinary(graph);
        (void)wrbpg::ToBinary(response.result.schedule);
      });
      RetimeChain(graph, budget, deadline_ms, response, serve, id, *trace);
      break;
  }
  return out;
}

}  // namespace perfbench
