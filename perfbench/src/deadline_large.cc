// deadline-large: pre-stage work and deadline slicing, measured together
// with answer quality.
//
// Why: a 50 ms request on a bare graph of hundreds to ~1,300 nodes. The
// robust chain first runs BestCertifiedBound, StartBound and
// RecognizeFamily with no deadline applied, then slices what is left of
// the 50 ms among the stages. How long the pre-stage takes decides both
// the latency and which stage can still answer (a recognized DWT loses its
// DP once the deadline has passed), so this workload moves on
// latency_p90_ms, io_cost_mean_bits and gap_mean_bits together. Deadline
// results are never cached: every request misses.
//
// Traffic dimensions:
//   graph size    382-1,280 nodes: eleven bare shapes (dwt, k-ary, mvm,
//                 butterfly, random layered), family wrappers stripped
//   symmetry      high (dwt, k-ary, butterfly, mvm) to none (random)
//   budget slack  fixed per graph, MinValidBudget + 0..32 bits
//   repeats       none: every request is a cold solve, 20 per cycle
//   isomorphs     none
//   deadline      50 ms on every request, at reference speed (HostSpeed):
//                 a host running 1.5x slower gets 75 ms, so the stages do
//                 the same work and the answers do not move with the host
// The shapes and the random graphs are fixed (kStructureSeed); the seed
// draws every labeling and the request order.
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "dataflows/builtin_spec.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/kary_tree.h"
#include "service_path.h"

namespace perfbench {
namespace {

using wrbpg::Graph;
using wrbpg::Weight;

constexpr double kDeadlineMs = 50;  // at reference speed

struct Shape {
  const char* spec;  // builtin spec, or "random:LAYERS,WIDTH" (seeded)
  Weight slack;
};

// A cycle of 20 requests. Three dwt:256,8 sit at the top, so the 90th
// percentile falls inside their block: RecognizeFamily alone outlasts the
// deadline there, so their latency is compute-bound (about 70 ms) and
// does not depend on where a deadline slice happens to end. The median
// falls among the 26-35 ms requests the exact stage answers at the end
// of its deadline slice.
const std::vector<Shape> kShapes = {
    {"dwt:256,8", 0},     {"dwt:256,8", 0},     {"dwt:256,8", 0},
    {"mvm:20,20", 0},     {"mvm:20,20", 0},     {"dwt:128,7", 16},
    {"dwt:128,7", 16},    {"kary:2,8", 16},     {"kary:3,6", 0},
    {"kary:2,9", 0},      {"butterfly:64", 16}, {"butterfly:64", 16},
    {"butterfly:128", 0}, {"butterfly:128", 0}, {"mvm:16,12", 32},
    {"mvm:16,12", 32},    {"random:16,25", 16}, {"random:16,25", 16},
    {"random:32,40", 0},  {"random:32,40", 0},
};
const std::vector<Shape> kTinyShapes = {{"dwt:64,5", 0}, {"kary:2,6", 0}};
// Warm-up requests: the first shapes of the list, the same for every seed.
constexpr std::size_t kWarmups = 4;

class DeadlineLarge : public Workload {
 public:
  explicit DeadlineLarge(const Settings& settings) : settings_(settings) {}

  void Setup(Checks& checks) override {
    wrbpg::Rng shapes(kStructureSeed);
    wrbpg::Rng rng(settings_.seed);
    for (const Shape& shape : settings_.tiny ? kTinyShapes : kShapes) {
      const std::string spec = shape.spec;
      const Graph graph = Relabel(BuildShape(spec, shapes), rng);
      Entry entry;
      entry.spec = spec;
      entry.request = {wrbpg::ToBinary(graph),
                       wrbpg::MinValidBudget(graph) + shape.slack, kDeadlineMs};
      entries_.push_back(std::move(entry));
    }
    order_.resize(entries_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Shuffle(order_, rng);

    service_ =
        std::make_unique<wrbpg::ScheduleService>(SingleThreadedService());
    for (std::size_t i = 0; i < kWarmups && i < entries_.size(); ++i) {
      const Served warm =
          ServeTimed(*service_, entries_[i].request, nullptr, 0, nullptr);
      checks.Expect(warm.decoded && warm.response.ok, "warm-up request failed");
    }
  }

  std::size_t CycleSize() const override { return order_.size(); }

  Outcome Serve(std::size_t index, std::uint64_t id, Trace* trace,
                Checks& checks) override {
    Entry& entry = entries_[order_[index]];
    const Request& request = entry.request;
    Served served = ServeTimed(*service_, request, nullptr, id, trace);
    wrbpg::ScheduleResult& result = served.response.result;
    Tamper(settings_, served.graph, request.budget, /*repeat=*/false, result);
    if (trace != nullptr) {
      traced_overrun_ms_.push_back(served.latency_ms -
                                   kDeadlineMs * HostRatio());
    }

    const std::string what = entry.spec;
    checks.Expect(served.decoded && served.response.ok, what + ": no answer");
    checks.Expect(served.response.source == wrbpg::ServeSource::kSolved,
                  what + ": served as " +
                      wrbpg::ToString(served.response.source));
    CheckSchedule(served.graph, request.budget, result, what, checks);
    // dwt and k-ary: the DP optimum of the builtin instance sits between
    // the certified bound and the returned cost.
    if (!entry.optimum) {
      entry.optimum = FamilyOptimum(entry.spec, request.budget);
    }
    if (*entry.optimum >= 0) {
      checks.Expect(result.lower_bound <= *entry.optimum &&
                        *entry.optimum <= result.cost,
                    what + ": DP optimum " + std::to_string(*entry.optimum) +
                        " outside [lb " + std::to_string(result.lower_bound) +
                        ", cost " + std::to_string(result.cost) + "]");
    }
    return Outcome{served.latency_ms, static_cast<double>(result.cost),
                   static_cast<double>(result.optimality_gap), 1};
  }

  void LayerMetrics(std::map<std::string, double>& layers) override {
    layers["robust.deadline_overrun_p90_ms"] =
        Percentile(traced_overrun_ms_, 90);
  }

 private:
  struct Entry {
    std::string spec;
    Request request;
    std::optional<Weight> optimum;  // -1 when the family has no DP
  };

  // Optimal cost from the family DP on the builtin wrapper; -1 otherwise.
  static Weight FamilyOptimum(const std::string& spec, Weight budget) {
    const wrbpg::BuiltinGraph built = wrbpg::BuildBuiltinGraph(spec);
    if (!built.ok) return -1;
    if (built.dwt) {
      return wrbpg::DwtOptimalScheduler(*built.dwt).Run(budget).cost;
    }
    if (built.tree) {
      return wrbpg::KaryTreeScheduler(built.tree->graph).Run(budget).cost;
    }
    return -1;
  }

  const Settings& settings_;
  std::vector<Entry> entries_;
  std::vector<std::size_t> order_;
  std::vector<double> traced_overrun_ms_;  // wall-clock
  std::unique_ptr<wrbpg::ScheduleService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeDeadlineLarge(const Settings& settings) {
  return std::make_unique<DeadlineLarge>(settings);
}

}  // namespace perfbench
