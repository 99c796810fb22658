// exact-cold: the cache-write path (a miss, then an insert), where search
// does nearly all the work.
//
// Why: every request is a graph the service has never seen, small enough
// for the bb engine to prove optimality with no deadline, so the time is
// the exact search and hashing costs microseconds. A faster exact engine
// must show here; a faster canonical layer must not move it.
//
// Traffic dimensions:
//   graph size    12 nodes: random layered CDAGs of 3x4 or 4x3 nodes,
//                 weights 1-8 bits, in-degree <= 3. 15-16-node draws have
//                 a heavy tail (p99 0.1-1.3 s against a 15-40 ms mean),
//                 so one request would set a cycle's time, and their
//                 dijkstra re-solve takes seconds.
//   symmetry      none to speak of; requests are pairwise non-isomorphic
//   budget slack  MinValidBudget + 0..4 bits, drawn per graph
//   repeats       none within a cycle; the cache is cleared between cycles
//                 so every timed request misses
//   deadline      none
// The graphs and slacks are fixed (kStructureSeed); the seed draws every
// labeling and the request order.
#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/state_bound.h"
#include "dataflows/random_dag.h"
#include "ganalysis/bounds.h"
#include "schedulers/brute_force.h"
#include "service_path.h"

namespace perfbench {
namespace {

using wrbpg::Graph;
using wrbpg::Weight;

constexpr std::size_t kRequests = 200;
constexpr std::size_t kTinyRequests = 6;
constexpr std::size_t kWarmups = 8;
constexpr Weight kMaxSlack = 4;
constexpr int kVerifyThreads = 3;

// A 12-node random layered CDAG and its budget, both from `shapes`.
std::pair<Graph, Weight> Generate(wrbpg::Rng& shapes) {
  const bool wide = shapes.Bernoulli(0.5);
  wrbpg::RandomDagOptions options;
  options.num_layers = wide ? 3 : 4;
  options.nodes_per_layer = wide ? 4 : 3;
  Graph graph = wrbpg::BuildRandomDag(shapes, options);
  const Weight budget =
      wrbpg::MinValidBudget(graph) + shapes.UniformInt(0, kMaxSlack);
  return {std::move(graph), budget};
}

class ExactCold : public Workload {
 public:
  explicit ExactCold(const Settings& settings) : settings_(settings) {}

  void Setup(Checks& checks) override {
    wrbpg::Rng shapes(kStructureSeed);
    wrbpg::Rng rng(settings_.seed);
    const std::size_t count = settings_.tiny ? kTinyRequests : kRequests;
    // Distinct cache keys, so no request can be served from another's
    // entry (isomorphic draws are redrawn).
    std::unordered_set<std::uint64_t> keys;
    auto fresh = [&] {
      for (;;) {
        const auto [graph, budget] = Generate(shapes);
        if (keys.insert(wrbpg::ScheduleService::DeriveKey(graph, budget))
                .second) {
          return Request{wrbpg::ToBinary(Relabel(graph, rng)), budget, 0};
        }
      }
    };
    for (std::size_t i = 0; i < count; ++i) requests_.push_back(fresh());
    std::vector<Request> warmups;
    for (std::size_t i = 0; i < kWarmups; ++i) warmups.push_back(fresh());
    Shuffle(requests_, rng);
    first_.resize(requests_.size());
    root_gap_.assign(requests_.size(), -1);

    service_ =
        std::make_unique<wrbpg::ScheduleService>(SingleThreadedService());
    for (const Request& request : warmups) {
      const Served warm = ServeTimed(*service_, request, nullptr, 0, nullptr);
      checks.Expect(warm.decoded && warm.response.ok,
                    "warm-up request failed");
    }
  }

  std::size_t CycleSize() const override { return requests_.size(); }

  // Each request's first answer against an untimed dijkstra re-solve, on a
  // few threads once the timed phase is over (later answers equal it).
  void Finish(Checks& checks) override {
    std::vector<Weight> optimum(requests_.size(), -1);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next++; i < requests_.size(); i = next++) {
        if (!first_[i].seen) continue;
        try {
          const Graph graph = wrbpg::ParseGraphBinary(requests_[i].bytes).graph;
          wrbpg::BruteForceOptions oracle;
          oracle.engine = wrbpg::SearchEngine::kDijkstra;
          oracle.threads = 1;
          optimum[i] = wrbpg::BruteForceScheduler(graph).CostOnly(
              requests_[i].budget, oracle);
        } catch (const std::exception&) {
          optimum[i] = -1;  // reported as a mismatch below
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kVerifyThreads; ++t) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (!first_[i].seen) continue;
      const Weight claimed = first_[i].result.cost;
      checks.Expect(claimed == optimum[i],
                    "request " + std::to_string(i) + ": cost " +
                        std::to_string(claimed) +
                        " != dijkstra optimum " + std::to_string(optimum[i]));
    }
  }

  // Every request of the next cycle must miss again.
  void BeginCycle() override { service_->ClearCache(); }

  Outcome Serve(std::size_t index, std::uint64_t id, Trace* trace,
                Checks& checks) override {
    const Request& request = requests_[index];
    Served served = ServeTimed(*service_, request, nullptr, id, trace);
    wrbpg::ScheduleResult& result = served.response.result;
    Tamper(settings_, served.graph, request.budget, first_[index].seen,
           result);

    const std::string what = "request " + std::to_string(index);
    checks.Expect(served.decoded && served.response.ok, what + ": no answer");
    checks.Expect(served.response.source == wrbpg::ServeSource::kSolved,
                  what + ": served as " +
                      wrbpg::ToString(served.response.source));
    checks.Expect(result.termination == wrbpg::Termination::kOptimal &&
                      result.optimality_gap == 0,
                  what + ": not proven optimal");
    // The first answer goes through the simulator now and an independent
    // dijkstra re-solve in Finish; every later cycle must reproduce it.
    const Graph& graph = served.graph;
    CheckRepeatable(graph, request.budget, result, what, first_[index],
                    checks);
    if (root_gap_[index] < 0) {
      // The gap the search had to close: the optimum minus the best bound
      // the program certifies before searching.
      const wrbpg::StateBound bound(graph, request.budget, 0, true, false);
      Weight root_lb = wrbpg::BestCertifiedBound(graph, request.budget);
      const Weight start_lb = bound.StartBound();
      if (start_lb < wrbpg::kInfiniteCost) {
        root_lb = std::max(root_lb, start_lb);
      }
      root_gap_[index] = result.cost - std::min(result.cost, root_lb);
    }
    return Outcome{served.latency_ms, static_cast<double>(result.cost),
                   static_cast<double>(root_gap_[index]), 1};
  }

 private:
  const Settings& settings_;
  std::vector<Request> requests_;
  std::vector<FirstAnswer> first_;  // per request
  std::vector<Weight> root_gap_;     // per request; -1 until computed
  std::unique_ptr<wrbpg::ScheduleService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeExactCold(const Settings& settings) {
  return std::make_unique<ExactCold>(settings);
}

}  // namespace perfbench
