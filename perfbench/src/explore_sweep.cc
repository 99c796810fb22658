// explore-sweep: the memory-design path of Sec 5.3.
//
// Why: one default Explore() per request prices a whole red-budget band
// times three SRAM word widths, so it uses the schedulers differently from
// the service: dozens of bb solves per graph, each capped at max_states,
// and the only workload that reaches explore's band derivation, hardware
// pricing and the dominance pass. An engine change that helps exact-cold
// but slows capped search, or widens the certified gap, shows here.
//
// Traffic dimensions:
//   graph size    7-19 nodes: small dwt, k-ary, butterfly and mvm shapes
//                 plus random layered CDAGs
//   symmetry      high (families) to none (random)
//   search cap    one sweep in 56 hits max_states at its tightest budget
//   budget slack  the band Explore derives itself (its default options)
//   repeats       each graph once per cycle; repeats must reproduce the
//                 frontier hash exactly
//   deadline      none (bb capped at the default max_states)
// The graphs and their labelings are fixed (kStructureSeed); the seed draws
// the request order only. The bb search on graphs this small is sensitive
// to labeling (one dwt:4,2 sweep took 22-33 ms across labelings, and the
// cycle time moved 21% across seeds), and a cycle holds too few labelings
// of each shape to average that out.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "explore/explore.h"
#include "ganalysis/bounds.h"
#include "hardware/energy_model.h"
#include "hardware/sram_model.h"
#include "harness.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"

namespace perfbench {
namespace {

using wrbpg::Graph;
using wrbpg::Weight;

// A cycle of 56 sweeps, built so that each percentile falls inside a block
// of one cost rather than between shapes of different cost: nine cheap
// sweeps and twelve dwt:4,2 (5-20 ms), twelve mvm:2,2 around p50 (about
// 30 ms), eleven kary:2,3 and eleven butterfly:4 around p90 (80-100 ms),
// and one mvm:2,3 whose tightest budget hits max_states and keeps a
// certified gap. A capped solve at the default cap costs about half a
// second on every graph tried, so that one sweep is still about a fifth
// of a cycle's time.
const std::vector<std::string> kShapes = [] {
  std::vector<std::pair<const char*, int>> mix = {
      {"kary:2,2", 2},     {"dwt:4,1", 3},      {"random:3,3", 4},
      {"dwt:4,2", 12},     {"mvm:2,2", 12},     {"kary:2,3", 11},
      {"butterfly:4", 11}, {"mvm:2,3", 1}};
  std::vector<std::string> shapes;
  for (const auto& [spec, copies] : mix) {
    shapes.insert(shapes.end(), static_cast<std::size_t>(copies), spec);
  }
  return shapes;
}();
const std::vector<std::string> kTinyShapes = {"dwt:4,1", "random:3,3"};

wrbpg::ExploreOptions SingleThreadedExplore() {
  wrbpg::ExploreOptions options;
  options.threads = 1;
  return options;
}

class ExploreSweep : public Workload {
 public:
  explicit ExploreSweep(const Settings& settings) : settings_(settings) {}

  void Setup(Checks& checks) override {
    wrbpg::Rng shapes(kStructureSeed);
    wrbpg::Rng rng(settings_.seed);
    for (const std::string& spec : settings_.tiny ? kTinyShapes : kShapes) {
      const Graph graph = Relabel(BuildShape(spec, shapes), shapes);
      entries_.push_back({spec, wrbpg::ToBinary(graph), 0});
    }
    Shuffle(entries_, rng);
    // Warm-up requests: one sweep of each mid-cost shape, in its base
    // labeling.
    for (const char* spec : {"dwt:4,2", "mvm:2,2", "kary:2,3"}) {
      const wrbpg::GraphParseResult parsed =
          wrbpg::ParseGraphBinary(wrbpg::ToBinary(BuildShape(spec, shapes)));
      checks.Expect(
          parsed.ok && wrbpg::Explore(parsed.graph, SingleThreadedExplore()).ok,
          std::string("warm-up sweep of ") + spec + " failed");
    }
  }

  std::size_t CycleSize() const override { return entries_.size(); }

  // One digest of every graph's frontier hash, independent of the cycle
  // order, on stderr: the graphs and labelings are fixed, so every run
  // of every seed must print the same one.
  void Finish(Checks& /*checks*/) override {
    std::uint64_t digest = 0;
    for (const Entry& entry : entries_) digest += entry.frontier_hash;
    std::cerr << "explore-sweep: frontier hash digest " << std::hex << digest
              << std::dec << " over " << entries_.size() << " graphs\n";
  }

  Outcome Serve(std::size_t index, std::uint64_t id, Trace* trace,
                Checks& checks) override {
    Entry& entry = entries_[index];
    const wrbpg::ExploreOptions options = SingleThreadedExplore();
    const Clock::time_point start = Clock::now();
    wrbpg::GraphParseResult parsed = wrbpg::ParseGraphBinary(entry.bytes);
    const Clock::time_point decoded = Clock::now();
    wrbpg::ExploreResult result;
    if (parsed.ok) result = wrbpg::Explore(parsed.graph, options);
    const Clock::time_point end = Clock::now();
    if (trace != nullptr && parsed.ok && result.ok) {
      Retime(parsed.graph, result, options, start, decoded, end, id, *trace);
    }

    if (settings_.tamper == "cost" && !result.points.empty()) {
      result.points.front().io_cost += 1;
    } else if (settings_.tamper == "move" && !result.points.empty()) {
      result.points.front().on_frontier = !result.points.front().on_frontier;
    }
    const std::string what = entry.spec;
    checks.Expect(parsed.ok && result.ok,
                  what + ": sweep failed: " + result.error);
    checks.Expect(!result.frontier.empty(), what + ": empty frontier");
    std::string why;
    checks.Expect(wrbpg::VerifyFrontier(result.points, result.frontier, &why),
                  what + ": " + why);
    double cost = 0;
    double gap = 0;
    for (const wrbpg::ExplorePoint& point : result.points) {
      checks.Expect(point.lower_bound <= point.io_cost &&
                        point.gap == point.io_cost - point.lower_bound,
                    what + ": point certificate inconsistent at budget " +
                        std::to_string(point.budget));
      cost += static_cast<double>(point.io_cost);
      gap += static_cast<double>(point.gap);
    }
    const std::uint64_t hash = wrbpg::FrontierHash(result);
    if (entry.frontier_hash == 0) entry.frontier_hash = hash;
    checks.Expect(hash == entry.frontier_hash,
                  what + ": repeated sweep changed the frontier hash");
    return Outcome{MsBetween(start, end), cost, gap,
                   static_cast<double>(result.points.size())};
  }

 private:
  struct Entry {
    std::string spec;
    std::string bytes;
    std::uint64_t frontier_hash = 0;  // of the first sweep; 0 = not yet
  };

  // Re-times the calls one sweep is made of, on the same graph and band.
  static void Retime(const Graph& graph, const wrbpg::ExploreResult& result,
                     const wrbpg::ExploreOptions& options,
                     Clock::time_point start, Clock::time_point decoded,
                     Clock::time_point end, std::uint64_t id, Trace& trace) {
    const std::int64_t root = trace.Add(id, -1, "request", start, end, false);
    trace.Add(id, root, "core.decode", start, decoded, false);
    const std::int64_t sweep =
        trace.Add(id, root, "explore.sweep", decoded, end, false);
    trace.Count("explore.points", static_cast<double>(result.points.size()));
    trace.Count("explore.frontier_size",
                static_cast<double>(result.frontier.size()));

    trace.Time(id, sweep, "explore.band", [&] {
      const Weight lo = wrbpg::MinValidBudget(graph);
      const wrbpg::BeladyScheduler belady(graph);
      wrbpg::MinMemoryOptions mm;
      mm.lo = lo;
      mm.hi = graph.total_weight();
      mm.step = options.budget_step;
      mm.graph = &graph;
      (void)wrbpg::FindMinimumFastMemory(
          [&belady](Weight budget) { return belady.CostOnly(budget); },
          wrbpg::AlgorithmicLowerBound(graph), mm);
    });
    struct Row {
      Weight budget = 0;
      Weight loaded = 0;
      Weight stored = 0;
    };
    std::vector<Row> rows;
    for (Weight budget = result.budget_lo; budget <= result.budget_hi;
         budget += result.budget_step) {
      wrbpg::BruteForceOptions bf;
      bf.engine = wrbpg::SearchEngine::kBranchAndBound;
      bf.max_states = options.max_states;
      bf.threads = 1;
      trace.Time(id, sweep, "ganalysis.certified_bound", [&] {
        bf.root_lower_bound = wrbpg::BestCertifiedBound(graph, budget);
      });
      wrbpg::SearchStats stats;
      bf.stats = &stats;
      wrbpg::ScheduleResult solved;
      trace.Time(id, sweep, "schedulers.search", [&] {
        solved = wrbpg::BruteForceScheduler(graph).Run(budget, bf);
      });
      trace.Count("schedulers.expanded", static_cast<double>(stats.expanded));
      trace.Count("schedulers.solves", 1);
      trace.Count("schedulers.cap_hits",
                  solved.termination == wrbpg::Termination::kMemoryCap);
      if (!solved.feasible) continue;
      Row row{budget, 0, 0};
      for (const wrbpg::Move& move : solved.schedule) {
        if (move.type == wrbpg::MoveType::kLoad) {
          row.loaded += graph.weight(move.node);
        } else if (move.type == wrbpg::MoveType::kStore) {
          row.stored += graph.weight(move.node);
        }
      }
      rows.push_back(row);
    }
    trace.Time(id, sweep, "hardware.price", [&] {
      for (const Row& row : rows) {
        const Weight capacity = wrbpg::PowerOfTwoCapacity(row.budget);
        for (const Weight word : options.word_bits) {
          const wrbpg::SramSynthesisResult synth =
              wrbpg::TrySynthesizeSram(capacity, word);
          if (!synth.ok()) continue;
          (void)wrbpg::EstimateScheduleEnergy(synth.macro, row.loaded,
                                              row.stored, options.duty_cycle);
        }
      }
    });
    trace.Time(id, sweep, "explore.dominance", [&] {
      const std::vector<std::size_t> frontier =
          wrbpg::ParetoFrontier(result.points);
      (void)wrbpg::VerifyFrontier(result.points, frontier);
    });
  }

  const Settings& settings_;
  std::vector<Entry> entries_;
};

}  // namespace

std::unique_ptr<Workload> MakeExploreSweep(const Settings& settings) {
  return std::make_unique<ExploreSweep>(settings);
}

}  // namespace perfbench
