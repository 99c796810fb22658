// BeladyScheduler and LayerByLayerScheduler share one eviction loop on the
// rules kernel; only the compute order and the eviction rule differ. This
// suite keeps the two hand-written loops they replaced as naive references
// (each with its own red/blue/red-weight/cost bookkeeping, kept verbatim)
// and requires identical moves, cost and feasibility on a corpus of 89
// graphs: DWT under Equal and DA weights, butterflies, generalized
// wavelets, MVMs, k-ary trees and 60 seeded random DAGs. Graphs without a
// layer description are layered by longest-path depth. Budgets run from
// MinValidBudget - 2 (infeasible) to the total weight (no eviction), one
// step at a time near the minimum and geometrically above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/mvm_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "dataflows/wavelet_graph.h"
#include "lint/liveness.h"
#include "schedulers/belady.h"
#include "schedulers/layer_by_layer.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

// ---------------------------------------------------------------------------
// Naive references: the former BeladyScheduler::Run and
// LayerByLayerScheduler::Run as they were, before they shared one loop. The
// parameters keep the member names the bodies read.
// ---------------------------------------------------------------------------

// "Value is never consumed again" — the shared liveness sentinel.
constexpr std::size_t kNever = kNoUse;

ScheduleResult NaiveBeladyRun(const Graph& graph_,
                              const std::vector<NodeId>& order_,
                              Weight budget) {
  const NodeId n = graph_.num_nodes();

  // Next-use oracle over the compute sequence (shared liveness module).
  const UseTimeline timeline = UseTimeline::OverComputeOrder(graph_, order_);
  auto next_use = [&](NodeId p, std::size_t t) {
    return timeline.NextUseAt(p, t);
  };

  ScheduleResult result;
  Schedule& s = result.schedule;
  std::vector<unsigned char> red(n, 0);
  std::vector<unsigned char> blue(n, 0);
  std::vector<unsigned char> pinned(n, 0);
  for (NodeId v : graph_.sources()) blue[v] = 1;
  std::vector<NodeId> resident;  // nodes currently red, unordered
  Weight red_weight = 0;
  Weight cost = 0;

  auto place = [&](NodeId v) {
    red[v] = 1;
    red_weight += graph_.weight(v);
    resident.push_back(v);
  };
  auto drop = [&](NodeId v) {
    s.Append(Delete(v));
    red[v] = 0;
    red_weight -= graph_.weight(v);
    resident.erase(std::find(resident.begin(), resident.end(), v));
  };
  // Evict furthest-next-use values until `w` more bits fit at time t.
  auto make_room = [&](Weight w, std::size_t t) {
    while (red_weight + w > budget) {
      NodeId victim = kInvalidNode;
      std::size_t victim_use = 0;
      for (NodeId r : resident) {
        if (pinned[r]) continue;
        const std::size_t use = next_use(r, t);
        if (victim == kInvalidNode || use > victim_use ||
            (use == victim_use && graph_.weight(r) > graph_.weight(victim))) {
          victim = r;
          victim_use = use;
        }
      }
      if (victim == kInvalidNode) return false;
      if (victim_use != kNever && !blue[victim]) {
        s.Append(Store(victim));
        blue[victim] = 1;
        cost += graph_.weight(victim);
      }
      drop(victim);
    }
    return true;
  };

  for (std::size_t t = 0; t < order_.size(); ++t) {
    const NodeId v = order_[t];
    const auto parents = graph_.parents(v);
    pinned[v] = 1;
    for (NodeId p : parents) pinned[p] = 1;

    for (NodeId p : parents) {
      if (red[p]) continue;
      assert(blue[p] && "evicted value was not stored");
      if (!make_room(graph_.weight(p), t)) {
        return ScheduleResult::Infeasible();
      }
      s.Append(Load(p));
      cost += graph_.weight(p);
      place(p);
    }
    if (!make_room(graph_.weight(v), t)) return ScheduleResult::Infeasible();
    s.Append(Compute(v));
    place(v);

    pinned[v] = 0;
    for (NodeId p : parents) pinned[p] = 0;

    // Retire values that will never be consumed again.
    for (NodeId p : parents) {
      if (red[p] && next_use(p, t + 1) == kNever) drop(p);
    }
    if (graph_.is_sink(v)) {
      s.Append(Store(v));
      blue[v] = 1;
      cost += graph_.weight(v);
      drop(v);
    }
  }

  result.feasible = true;
  result.cost = cost;
  return result;
}

ScheduleResult NaiveLayerByLayerRun(
    const Graph& graph_, const std::vector<std::vector<NodeId>>& layers_,
    bool alternate_, Weight budget) {
  ScheduleResult result;
  Schedule& s = result.schedule;

  const NodeId n = graph_.num_nodes();
  std::vector<unsigned char> red(n, 0);
  std::vector<unsigned char> blue(n, 0);
  std::vector<unsigned char> pinned(n, 0);
  std::vector<std::size_t> remaining(n);
  for (NodeId v : graph_.sources()) blue[v] = 1;
  for (NodeId v = 0; v < n; ++v) remaining[v] = graph_.out_degree(v);

  Weight red_weight = 0;
  Weight cost = 0;
  // FIFO of resident values in placement order; stale entries (already
  // deleted) are skipped lazily.
  std::deque<NodeId> fifo;

  auto place_red = [&](NodeId v) {
    red[v] = 1;
    red_weight += graph_.weight(v);
    fifo.push_back(v);
  };
  auto drop_red = [&](NodeId v) {
    s.Append(Delete(v));
    red[v] = 0;
    red_weight -= graph_.weight(v);
  };
  // Spill resident, still-needed values in FIFO order until `w` more bits
  // fit. Returns false when everything left is pinned (infeasible budget).
  auto make_room = [&](Weight w) {
    std::size_t skipped = 0;
    while (red_weight + w > budget) {
      if (skipped >= fifo.size()) return false;
      const NodeId victim = fifo.front();
      fifo.pop_front();
      if (!red[victim]) continue;  // stale entry
      if (pinned[victim]) {
        fifo.push_back(victim);
        ++skipped;
        continue;
      }
      if (!blue[victim]) {
        s.Append(Store(victim));
        blue[victim] = 1;
        cost += graph_.weight(victim);
      }
      drop_red(victim);
    }
    return true;
  };

  for (std::size_t li = 1; li < layers_.size(); ++li) {
    std::vector<NodeId> order = layers_[li];
    // S_2 ascending, then alternate direction per layer.
    if (alternate_ && li % 2 == 0) std::reverse(order.begin(), order.end());

    for (NodeId v : order) {
      const auto parents = graph_.parents(v);
      pinned[v] = 1;
      for (NodeId p : parents) pinned[p] = 1;

      for (NodeId p : parents) {
        if (red[p]) continue;
        assert(blue[p] && "needed value was deleted without a store");
        if (!make_room(graph_.weight(p))) return ScheduleResult::Infeasible();
        s.Append(Load(p));
        cost += graph_.weight(p);
        place_red(p);
      }
      if (!make_room(graph_.weight(v))) return ScheduleResult::Infeasible();
      s.Append(Compute(v));
      place_red(v);

      pinned[v] = 0;
      for (NodeId p : parents) pinned[p] = 0;

      // Eagerly retire values with no pending children.
      for (NodeId p : parents) {
        assert(remaining[p] > 0);
        if (--remaining[p] == 0 && red[p]) drop_red(p);
      }
      if (graph_.is_sink(v)) {
        s.Append(Store(v));
        blue[v] = 1;
        cost += graph_.weight(v);
        drop_red(v);
      }
    }
  }

  result.feasible = true;
  result.cost = cost;
  return result;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

struct Instance {
  std::string name;
  Graph graph;
  std::vector<std::vector<NodeId>> layers;  // layers[0] = the sources
};

// Longest-path depth: sources at 0, every other node one past its deepest
// parent; ascending node ids within a layer.
std::vector<std::vector<NodeId>> DepthLayers(const Graph& graph) {
  std::vector<std::size_t> depth(graph.num_nodes(), 0);
  for (NodeId v : graph.topological_order()) {
    for (NodeId p : graph.parents(v)) {
      depth[v] = std::max(depth[v], depth[p] + 1);
    }
  }
  std::vector<std::vector<NodeId>> layers;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (depth[v] >= layers.size()) layers.resize(depth[v] + 1);
    layers[depth[v]].push_back(v);
  }
  return layers;
}

Instance Unlayered(std::string name, Graph graph) {
  std::vector<std::vector<NodeId>> layers = DepthLayers(graph);
  return {std::move(name), std::move(graph), std::move(layers)};
}

const std::vector<Instance>& Corpus() {
  static const std::vector<Instance> corpus = [] {
    std::vector<Instance> out;
    const std::pair<std::int64_t, int> dwts[] = {
        {8, 3}, {16, 4}, {32, 5}, {64, 6}, {128, 7}, {256, 8}, {64, 2}};
    for (const auto& [n, d] : dwts) {
      for (const PrecisionConfig config :
           {PrecisionConfig::Equal(), PrecisionConfig::DoubleAccumulator()}) {
        DwtGraph dwt = BuildDwt(n, d, config);
        out.push_back({"dwt(" + std::to_string(n) + "," + std::to_string(d) +
                           ")/" + ConfigLabel(config),
                       std::move(dwt.graph), std::move(dwt.layers)});
      }
    }
    for (const std::int64_t n : {8, 16, 64, 256}) {
      ButterflyGraph bf = BuildButterfly(n);
      out.push_back({"butterfly(" + std::to_string(n) + ")",
                     std::move(bf.graph), std::move(bf.layers)});
    }
    const int wavelets[][3] = {
        {16, 2, 4}, {64, 3, 4}, {64, 2, 6}, {128, 4, 4}, {32, 2, 2}};
    for (const auto& [n, d, taps] : wavelets) {
      WaveletGraph w = BuildWavelet(n, d, taps);
      out.push_back({"wavelet(" + std::to_string(n) + "," +
                         std::to_string(d) + "," + std::to_string(taps) + ")",
                     std::move(w.graph), std::move(w.layers)});
    }
    const std::pair<std::int64_t, std::int64_t> mvms[] = {
        {4, 4}, {8, 10}, {16, 12}};
    for (const auto& [m, n] : mvms) {
      out.push_back(Unlayered(
          "mvm(" + std::to_string(m) + "x" + std::to_string(n) + ")",
          BuildMvm(m, n).graph));
    }
    const std::pair<int, int> trees[] = {{2, 4}, {3, 3}, {2, 6}};
    for (const auto& [k, levels] : trees) {
      out.push_back(Unlayered(
          "kary(" + std::to_string(k) + "," + std::to_string(levels) + ")",
          BuildPerfectTree(k, levels).graph));
    }
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed);
      const RandomDagOptions options{
          .num_layers = 2 + static_cast<int>(seed % 7),
          .nodes_per_layer = 1 + static_cast<int>(seed % 6),
          .max_in_degree = 1 + static_cast<int>(seed % 4),
          .min_weight = 1,
          .max_weight = seed % 3 == 0 ? 32 : 8};
      out.push_back(Unlayered("random(seed=" + std::to_string(seed) + ")",
                              BuildRandomDag(rng, options)));
    }
    return out;
  }();
  return corpus;
}

// MinValidBudget - 2 upward by one bit, then by an eighth of the distance
// travelled, ending at the total weight (where nothing is ever evicted).
std::vector<Weight> Budgets(const Graph& graph) {
  const Weight lo = std::max<Weight>(MinValidBudget(graph) - 2, 1);
  const Weight hi = graph.total_weight();
  std::vector<Weight> budgets;
  for (Weight b = lo; b < hi; b += std::max<Weight>(1, (b - lo) / 8)) {
    budgets.push_back(b);
  }
  budgets.push_back(hi);
  return budgets;
}

std::vector<NodeId> LayerOrder(const Instance& instance) {
  std::vector<NodeId> order;
  for (std::size_t li = 1; li < instance.layers.size(); ++li) {
    const auto& layer = instance.layers[li];
    if (li % 2 == 0) {
      order.insert(order.end(), layer.rbegin(), layer.rend());
    } else {
      order.insert(order.end(), layer.begin(), layer.end());
    }
  }
  return order;
}

// Counts compared pairs and how many the reference spilled or rejected, so
// each test can check that the corpus reaches the eviction paths at all.
struct Tally {
  std::size_t compared = 0;
  std::size_t spilled = 0;     // feasible with a store of a non-sink
  std::size_t infeasible = 0;
};

void ExpectIdentical(const Graph& graph, const ScheduleResult& ref,
                     const ScheduleResult& got, const std::string& label,
                     Tally& tally) {
  ++tally.compared;
  if (!ref.feasible) {
    ++tally.infeasible;
  } else {
    for (const Move& m : ref.schedule) {
      if (m.type == MoveType::kStore && !graph.is_sink(m.node)) {
        ++tally.spilled;
        break;
      }
    }
  }
  ASSERT_EQ(ref.feasible, got.feasible) << label;
  ASSERT_EQ(ref.cost, got.cost) << label;
  ASSERT_TRUE(ref.schedule == got.schedule)
      << label << ": schedules differ\nref:\n"
      << ref.schedule.ToString() << "got:\n"
      << got.schedule.ToString();
}

void ExpectCorpusReachesEveryPath(const Tally& tally) {
  EXPECT_GT(tally.infeasible, 0u);
  EXPECT_GT(tally.spilled, tally.compared / 4);
}

TEST(EvictionDifferential, BeladyTopologicalOrderMatchesNaiveLoop) {
  ASSERT_EQ(Corpus().size(), 89u);
  Tally tally;
  for (const Instance& instance : Corpus()) {
    const BeladyScheduler belady(instance.graph);
    std::vector<NodeId> order;
    for (NodeId v : instance.graph.topological_order()) {
      if (!instance.graph.is_source(v)) order.push_back(v);
    }
    for (const Weight budget : Budgets(instance.graph)) {
      ExpectIdentical(instance.graph,
                      NaiveBeladyRun(instance.graph, order, budget),
                      belady.Run(budget),
                      instance.name + " budget " + std::to_string(budget),
                      tally);
      if (HasFatalFailure()) return;
    }
  }
  ExpectCorpusReachesEveryPath(tally);
}

TEST(EvictionDifferential, BeladyCustomOrderMatchesNaiveLoop) {
  Tally tally;
  for (const Instance& instance : Corpus()) {
    const std::vector<NodeId> order = LayerOrder(instance);
    const BeladyScheduler belady(instance.graph, order);
    for (const Weight budget : Budgets(instance.graph)) {
      ExpectIdentical(instance.graph,
                      NaiveBeladyRun(instance.graph, order, budget),
                      belady.Run(budget),
                      instance.name + " budget " + std::to_string(budget),
                      tally);
      if (HasFatalFailure()) return;
    }
  }
  ExpectCorpusReachesEveryPath(tally);
}

TEST(EvictionDifferential, LayerByLayerMatchesNaiveLoop) {
  for (const bool alternate : {true, false}) {
    Tally tally;
    for (const Instance& instance : Corpus()) {
      const LayerByLayerScheduler baseline(instance.graph, instance.layers,
                                           alternate);
      for (const Weight budget : Budgets(instance.graph)) {
        ExpectIdentical(
            instance.graph,
            NaiveLayerByLayerRun(instance.graph, instance.layers, alternate,
                                 budget),
            baseline.Run(budget),
            instance.name + (alternate ? " alternating" : " fixed") +
                " budget " + std::to_string(budget),
            tally);
        if (HasFatalFailure()) return;
      }
    }
    ExpectCorpusReachesEveryPath(tally);
  }
}

}  // namespace
}  // namespace wrbpg
