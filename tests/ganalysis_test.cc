// Tests for the static graph analyzer (ganalysis/): canonical hashing,
// verified orbits, family recognition, and the AnalyzeGraph front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/graph_builder.h"
#include "core/serialize.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/random_dag.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/canonical.h"
#include "ganalysis/ganalysis.h"
#include "ganalysis/recognition.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {

namespace canonical_detail {
// Defined in canonical.cc: the stable coloring with vertex `v` split off
// after the first refinement and refined again incrementally.
ColorRefinement RefineIndividualized(const Graph& graph, NodeId v);
}  // namespace canonical_detail

namespace {

// The 1-WL rank iteration the worklist refiner replaced, kept as a naive
// reference: seed by (weight, in-degree, out-degree), then re-rank every
// vertex by (color, sorted parent colors, sorted child colors) until the
// number of colors stops changing.
using Signature = std::vector<std::uint64_t>;

// Colors the vertices by the rank of their signature; returns the number
// of distinct signatures.
std::uint32_t RankBy(const std::vector<Signature>& sigs,
                     std::vector<std::uint32_t>& colors) {
  std::vector<NodeId> order(sigs.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return sigs[a] < sigs[b]; });
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && sigs[order[i]] != sigs[order[i - 1]]) ++rank;
    colors[order[i]] = rank;
  }
  return order.empty() ? 0 : rank + 1;
}

// Re-ranks until the number of colors stops changing; returns it.
std::uint32_t NaiveRefineToStable(const Graph& g,
                                  std::vector<std::uint32_t>& colors,
                                  std::uint32_t num_colors) {
  std::vector<Signature> sigs(g.num_nodes());
  for (;;) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Signature& sig = sigs[v];
      sig = {colors[v], g.in_degree(v)};
      for (const NodeId p : g.parents(v)) sig.push_back(colors[p]);
      std::sort(sig.begin() + 2, sig.end());
      sig.push_back(g.out_degree(v));
      const auto children_begin = static_cast<std::ptrdiff_t>(sig.size());
      for (const NodeId c : g.children(v)) sig.push_back(colors[c]);
      std::sort(sig.begin() + children_begin, sig.end());
    }
    const std::uint32_t next = RankBy(sigs, colors);
    if (next == num_colors) return next;
    num_colors = next;
  }
}

// Naive stable coloring, optionally with `v` given a fresh color after
// the first refinement and everything re-refined from scratch.
ColorRefinement NaiveRefineColors(const Graph& g,
                                  std::optional<NodeId> v = {}) {
  std::vector<Signature> seed(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    seed[u] = {static_cast<std::uint64_t>(g.weight(u)), g.in_degree(u),
               g.out_degree(u)};
  }
  ColorRefinement r;
  r.colors.resize(g.num_nodes());
  r.num_colors = NaiveRefineToStable(g, r.colors, RankBy(seed, r.colors));
  if (v) {
    r.colors[*v] = r.num_colors;
    r.num_colors = NaiveRefineToStable(g, r.colors, r.num_colors + 1);
  }
  return r;
}

// True when the two colorings induce the same set partition of V.
bool SamePartition(const ColorRefinement& a, const ColorRefinement& b) {
  if (a.colors.size() != b.colors.size() || a.num_colors != b.num_colors) {
    return false;
  }
  std::vector<std::uint32_t> a_to_b(a.num_colors, UINT32_MAX);
  std::vector<std::uint32_t> b_to_a(b.num_colors, UINT32_MAX);
  for (std::size_t v = 0; v < a.colors.size(); ++v) {
    const std::uint32_t ca = a.colors[v];
    const std::uint32_t cb = b.colors[v];
    if (a_to_b[ca] == UINT32_MAX && b_to_a[cb] == UINT32_MAX) {
      a_to_b[ca] = cb;
      b_to_a[cb] = ca;
    } else if (a_to_b[ca] != cb || b_to_a[cb] != ca) {
      return false;
    }
  }
  return true;
}

Graph BuiltinOrDie(const std::string& spec) {
  BuiltinGraph built = BuildBuiltinGraph(spec);
  EXPECT_TRUE(built.ok) << spec << ": " << built.error;
  return built.graph();
}

// The sort-based IsIsomorphismMap the stamp-array check replaced, kept
// verbatim as a naive reference.
bool SortedIsIsomorphismMap(const Graph& a, const Graph& b,
                            const std::vector<NodeId>& map) {
  const NodeId n = a.num_nodes();
  if (b.num_nodes() != n || map.size() != n) return false;
  if (a.num_edges() != b.num_edges()) return false;
  std::vector<unsigned char> hit(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (map[v] >= n || hit[map[v]]) return false;  // not a bijection
    hit[map[v]] = 1;
    if (a.weight(v) != b.weight(map[v])) return false;
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto pa = a.parents(v);
    const auto pb = b.parents(map[v]);
    if (pa.size() != pb.size()) return false;
    std::vector<NodeId> mapped;
    mapped.reserve(pa.size());
    for (NodeId p : pa) mapped.push_back(map[p]);
    std::sort(mapped.begin(), mapped.end());
    std::vector<NodeId> target(pb.begin(), pb.end());
    std::sort(target.begin(), target.end());
    if (mapped != target) return false;
  }
  return true;
}

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

EdgeList EdgesOf(const Graph& g) {
  EdgeList edges;
  edges.reserve(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NodeId c : g.children(v)) edges.emplace_back(v, c);
  }
  return edges;
}

std::vector<Weight> WeightsOf(const Graph& g) {
  std::vector<Weight> weights(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) weights[v] = g.weight(v);
  return weights;
}

// Builds a graph from weights and edges; nullopt when the edit broke a
// model precondition (a cycle). Sources and sinks may overlap, so an edit
// that leaves a node isolated still builds.
std::optional<Graph> Rebuild(const std::vector<Weight>& weights,
                             const EdgeList& edges) {
  GraphBuilder builder;
  for (const Weight w : weights) builder.AddNode(w);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  GraphBuilder::BuildResult built =
      builder.Build({.require_disjoint_sources_sinks = false});
  if (!built.ok) return std::nullopt;
  return std::move(built.graph);
}

TEST(Canonical, HashIsInvariantUnderRandomPermutation) {
  const std::vector<Graph> corpus = {
      testing::MakeDiamond({3, 5, 7, 11, 13}),
      testing::MakeChain(9),
      BuildPerfectTree(2, 4).graph,
      BuildDwt(8, 2).graph,
  };
  for (const Graph& g : corpus) {
    const GraphHash original = HashGraph(g);
    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
      const Graph shuffled = testing::PermuteGraph(g, seed);
      EXPECT_EQ(HashGraph(shuffled), original) << "seed " << seed;
      EXPECT_EQ(RefineColors(shuffled).num_colors,
                RefineColors(g).num_colors);
    }
  }
}

TEST(Canonical, HashSeparatesStructurallyDifferentGraphs) {
  // Same node count and weight multiset, different wiring.
  const Graph chain = testing::MakeChain(7);
  GraphBuilder b;
  for (int i = 0; i < 7; ++i) b.AddNode(1);
  for (NodeId v = 0; v + 1 < 7; ++v) b.AddEdge(0, v + 1);  // star
  const Graph star = b.BuildOrDie();
  EXPECT_NE(HashGraph(chain), HashGraph(star));
  EXPECT_NE(HashGraph(BuildDwt(16, 2).graph),
            HashGraph(BuildPerfectTree(2, 4).graph));
}

TEST(Canonical, OrbitsAreVerifiedAutomorphismClasses) {
  // Perfect binary tree: every level is one orbit (all verified).
  const Graph tree = BuildPerfectTree(2, 4).graph;
  const OrbitPartition orbits = ComputeOrbits(tree);
  EXPECT_EQ(orbits.num_orbits, 5u);  // one per level, 31 nodes
  // Every orbit member must map to its representative under an explicit
  // automorphism, so equal weight/in/out degree is necessary.
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const NodeId rep = orbits.orbit_of[v];
    EXPECT_LE(rep, v);
    EXPECT_EQ(tree.weight(v), tree.weight(rep));
    EXPECT_EQ(tree.parents(v).size(), tree.parents(rep).size());
    EXPECT_EQ(tree.children(v).size(), tree.children(rep).size());
  }
}

TEST(Canonical, AsymmetricGraphHasSingletonOrbits) {
  // The diamond's sources differ in out-degree; the chain is rigid.
  const Graph diamond = testing::MakeDiamond();
  const OrbitPartition d = ComputeOrbits(diamond);
  EXPECT_FALSE(d.SameOrbit(0, 1));
  const Graph chain = testing::MakeChain(6);
  EXPECT_EQ(ComputeOrbits(chain).num_orbits, chain.num_nodes());
}

TEST(Canonical, FindIsomorphismRoundTripsThroughPermutation) {
  const Graph g = BuildDwt(8, 2).graph;
  const Graph h = testing::PermuteGraph(g, 0xfeedu);
  const auto map = FindIsomorphism(g, h);
  ASSERT_TRUE(map.has_value());
  EXPECT_TRUE(IsIsomorphismMap(g, h, *map));
  // And a non-isomorphic pair of equal size is rejected.
  EXPECT_FALSE(
      FindIsomorphism(testing::MakeChain(5), testing::MakeDiamond())
          .has_value());
}

// The worklist refiner computes the same set partition as the naive 1-WL
// rank iteration — both reach the coarsest equitable refinement of the
// seed — on the family corpus and on random DAGs, half of them with
// uniform weights so the structure alone must split the cells. Every
// vertex of the smaller graphs is also individualized, which exercises
// the incremental path: only the new singleton is queued.
TEST(Canonical, RefineColorsMatchesNaiveOneWl) {
  std::vector<std::pair<std::string, Graph>> corpus;
  for (const char* spec :
       {"dwt:8,2", "dwt:16,2", "dwt:16,4", "dwt:32,3", "kary:2,4",
        "kary:3,3", "kary:4,2", "butterfly:8", "butterfly:16", "mvm:3,3",
        "mvm:4,4", "mvm:2,5"}) {
    corpus.emplace_back(spec, BuiltinOrDie(spec));
  }
  corpus.emplace_back("chain:9", testing::MakeChain(9));
  corpus.emplace_back("diamond", testing::MakeDiamond({3, 5, 7, 11, 13}));
  // Wide, shallow DAGs are in the mix on purpose: they are where a wrong
  // worklist rule (dropping a fragment of a still-queued cell) leaves the
  // partition short of equitable.
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    Rng rng(0xc0105u + seed);
    RandomDagOptions options;
    options.num_layers = 2 + static_cast<int>(seed % 5);
    options.nodes_per_layer = 2 + static_cast<int>((seed * 5) % 13);
    options.max_in_degree = 1 + static_cast<int>(seed % 3);
    if (seed % 2 == 0) options.min_weight = options.max_weight = 4;
    corpus.emplace_back("random seed " + std::to_string(seed),
                        BuildRandomDag(rng, options));
  }
  for (const auto& [name, g] : corpus) {
    const ColorRefinement refined = RefineColors(g);
    const ColorRefinement naive = NaiveRefineColors(g);
    EXPECT_EQ(refined.num_colors, naive.num_colors) << name;
    EXPECT_TRUE(SamePartition(refined, naive)) << name;
    if (g.num_nodes() > 48) continue;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_TRUE(SamePartition(canonical_detail::RefineIndividualized(g, v),
                                NaiveRefineColors(g, v)))
          << name << " individualized " << v;
    }
  }
}

// Benchmark-scale instances (the serve and deadline workloads' shapes)
// keep every contract under relabeling: the hash is invariant, the
// verified isomorphism is found, and a bare permuted DWT is recognized.
TEST(Canonical, BenchmarkScaleGraphsSurvivePermutation) {
  for (const char* spec : {"dwt:256,8", "kary:3,5", "butterfly:64",
                           "mvm:8,8", "random:12,16,7"}) {
    const Graph g = BuiltinOrDie(spec);
    const GraphHash hash = HashGraph(g);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph permuted = testing::PermuteGraph(g, seed);
      EXPECT_EQ(HashGraph(permuted), hash) << spec << " seed " << seed;
      const auto map = FindIsomorphism(g, permuted);
      ASSERT_TRUE(map.has_value()) << spec << " seed " << seed;
      EXPECT_TRUE(IsIsomorphismMap(g, permuted, *map));
      if (std::string(spec) == "dwt:256,8") {
        EXPECT_EQ(RecognizeFamily(permuted).label, "dwt:256,8");
      }
    }
  }
}

// The stamp-array IsIsomorphismMap agrees with the sort-based one on
// true isomorphisms and on every kind of near miss: a parent row of the
// right size holding one non-parent, a changed weight, two vertices
// mapped to one image, an image out of range, and unequal sizes. Each
// defect kind must also produce some `false`, so the comparison cannot
// pass on inputs that never reach the check under test.
TEST(Canonical, IsIsomorphismMapMatchesSortedReference) {
  std::vector<Graph> corpus;
  for (const char* spec :
       {"dwt:8,2", "dwt:16,2", "kary:2,4", "kary:3,3", "butterfly:8",
        "butterfly:16", "mvm:3,3", "mvm:4,4"}) {
    corpus.push_back(BuiltinOrDie(spec));
  }
  corpus.push_back(testing::MakeDiamond({3, 5, 7, 11, 13}));
  corpus.push_back(testing::MakeChain(9));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(0x15a5u + seed);
    RandomDagOptions options;
    options.num_layers = 3 + static_cast<int>(seed % 3);
    options.nodes_per_layer = 3 + static_cast<int>(seed % 4);
    options.max_in_degree = 2;
    if (seed % 2 == 0) options.min_weight = options.max_weight = 4;
    corpus.push_back(BuildRandomDag(rng, options));
  }

  std::size_t checked = 0;
  std::vector<std::size_t> rejected(7, 0);  // per defect kind
  auto agree = [&](const Graph& a, const Graph& b,
                   const std::vector<NodeId>& map, std::size_t kind,
                   const std::string& what) {
    const bool expected = SortedIsIsomorphismMap(a, b, map);
    EXPECT_EQ(IsIsomorphismMap(a, b, map), expected) << what;
    ++checked;
    if (!expected) ++rejected[kind];
  };

  for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
    const Graph& g = corpus[gi];
    const NodeId n = g.num_nodes();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph h = testing::PermuteGraph(g, seed);
      const auto found = FindIsomorphism(g, h);
      if (!found) continue;
      const std::vector<NodeId>& map = *found;
      const std::string at =
          "graph " + std::to_string(gi) + " seed " + std::to_string(seed);
      agree(g, h, map, 0, at + " true map");
      EXPECT_TRUE(IsIsomorphismMap(g, h, map)) << at;

      // A parent row of the right size with one non-parent: rewire the
      // edge p -> v of h to q -> v, q earlier in topological order.
      const auto& topo = h.topological_order();
      for (std::size_t i = 1; i < topo.size(); i += 1 + topo.size() / 6) {
        const NodeId v = topo[i];
        if (h.parents(v).empty()) continue;
        const NodeId p = h.parents(v).front();
        for (std::size_t j = 0; j < i; ++j) {
          const NodeId q = topo[j];
          const auto row = h.parents(v);
          if (std::find(row.begin(), row.end(), q) != row.end()) continue;
          EdgeList edges = EdgesOf(h);
          for (auto& edge : edges) {
            if (edge == std::pair{p, v}) edge.first = q;
          }
          if (const auto rewired = Rebuild(WeightsOf(h), edges)) {
            agree(g, *rewired, map, 1,
                  at + " parent " + std::to_string(p) + " of " +
                      std::to_string(v) + " -> " + std::to_string(q));
          }
          break;
        }
      }

      // Two vertices of equal weight and in-degree swap images.
      for (NodeId x = 0; x + 1 < n; x += 1 + n / 5) {
        for (NodeId y = x + 1; y < n; ++y) {
          if (g.weight(x) != g.weight(y) ||
              g.in_degree(x) != g.in_degree(y)) {
            continue;
          }
          std::vector<NodeId> swapped = map;
          std::swap(swapped[x], swapped[y]);
          agree(g, h, swapped, 2, at + " swap " + std::to_string(x) + "," +
                                      std::to_string(y));
          break;
        }
      }

      // A changed weight.
      for (NodeId x = 0; x < n; x += 1 + n / 4) {
        std::vector<Weight> weights = WeightsOf(h);
        weights[map[x]] += 1;
        const auto heavier = Rebuild(weights, EdgesOf(h));
        ASSERT_TRUE(heavier.has_value());
        agree(g, *heavier, map, 3, at + " weight of " + std::to_string(x));
      }

      // Two vertices mapped to one image.
      for (NodeId x = 1; x < n; x += 1 + n / 4) {
        std::vector<NodeId> merged = map;
        merged[x] = map[x - 1];
        agree(g, h, merged, 4, at + " merge " + std::to_string(x));
      }

      // An image out of range.
      for (const NodeId image : {n, n + 7, kInvalidNode}) {
        std::vector<NodeId> out = map;
        out[n / 2] = image;
        agree(g, h, out, 5, at + " image " + std::to_string(image));
      }

      // Unequal sizes: a short or long map, one more node, one edge less.
      std::vector<NodeId> shorter(map.begin(), map.end() - 1);
      agree(g, h, shorter, 6, at + " short map");
      std::vector<NodeId> longer = map;
      longer.push_back(n);
      agree(g, h, longer, 6, at + " long map");
      std::vector<Weight> weights = WeightsOf(h);
      weights.push_back(1);
      if (const auto bigger = Rebuild(weights, EdgesOf(h))) {
        agree(g, *bigger, map, 6, at + " extra node");
      }
      EdgeList edges = EdgesOf(h);
      edges.pop_back();
      if (const auto sparser = Rebuild(WeightsOf(h), edges)) {
        agree(g, *sparser, map, 6, at + " missing edge");
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_EQ(rejected[0], 0u);  // every found map is an isomorphism
  for (std::size_t kind = 1; kind < rejected.size(); ++kind) {
    EXPECT_GT(rejected[kind], 0u) << "defect kind " << kind;
  }
}

// FindIsomorphism with a's labeling passed in is the two-graph search:
// the same maps on the benchmark-scale shapes, nullopt on a 1-WL-
// equivalent non-isomorphic pair, and never a wrong map from a labeling
// of the wrong size or of another graph.
TEST(Canonical, CachedLabelingFindsTheSameMap) {
  for (const char* spec : {"dwt:256,8", "kary:3,5", "butterfly:64",
                           "mvm:8,8", "random:12,16,7"}) {
    const Graph g = BuiltinOrDie(spec);
    const std::vector<std::uint32_t> labeling = IsomorphismLabeling(g);
    std::vector<std::uint32_t> sorted = labeling;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> identity(g.num_nodes());
    std::iota(identity.begin(), identity.end(), 0u);
    EXPECT_EQ(sorted, identity) << spec << ": not a permutation";
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph permuted = testing::PermuteGraph(g, seed);
      const auto cached = FindIsomorphism(g, labeling, permuted);
      ASSERT_TRUE(cached.has_value()) << spec << " seed " << seed;
      EXPECT_TRUE(cached == FindIsomorphism(g, permuted))
          << spec << " seed " << seed;
    }
  }

  // Six sources feeding six sinks, every degree 2: one 12-cycle against
  // two 6-cycles. Refinement cannot tell them apart (equal hashes), but
  // no bijection survives verification.
  auto ring = [](std::uint32_t cycle) {
    GraphBuilder b;
    for (int i = 0; i < 12; ++i) b.AddNode(2);
    for (std::uint32_t i = 0; i < 6; ++i) {
      const std::uint32_t base = i / cycle * cycle;
      b.AddEdge(i, 6 + i);
      b.AddEdge(i, 6 + base + (i - base + 1) % cycle);
    }
    return b.BuildOrDie();
  };
  const Graph one_ring = ring(6);
  const Graph two_rings = ring(3);
  ASSERT_EQ(HashGraph(one_ring), HashGraph(two_rings));
  EXPECT_FALSE(FindIsomorphism(one_ring, two_rings).has_value());
  EXPECT_FALSE(FindIsomorphism(one_ring, IsomorphismLabeling(one_ring),
                               two_rings)
                   .has_value());

  // Wrong labelings: a size mismatch is refused outright; a labeling of
  // another graph (or no permutation at all) yields nullopt or a map the
  // verifier accepts.
  const Graph g = BuiltinOrDie("dwt:16,2");
  const Graph permuted = testing::PermuteGraph(g, 0x5eedu);
  std::vector<std::uint32_t> labeling = IsomorphismLabeling(g);
  labeling.pop_back();
  EXPECT_FALSE(FindIsomorphism(g, labeling, permuted).has_value());
  labeling = IsomorphismLabeling(g);
  labeling.push_back(static_cast<std::uint32_t>(labeling.size()));
  EXPECT_FALSE(FindIsomorphism(g, labeling, permuted).has_value());
  EXPECT_FALSE(FindIsomorphism(g, {}, permuted).has_value());

  Rng rng(0xd1ffu);
  RandomDagOptions options;
  options.num_layers = 4;
  options.nodes_per_layer = static_cast<int>(g.num_nodes()) / 4;
  const Graph other = BuildRandomDag(rng, options);
  std::vector<std::vector<std::uint32_t>> wrong = {
      IsomorphismLabeling(permuted),
      IsomorphismLabeling(testing::PermuteGraph(g, 0xbeefu)),
      std::vector<std::uint32_t>(g.num_nodes(), 0),
      std::vector<std::uint32_t>(g.num_nodes(), g.num_nodes()),
  };
  if (other.num_nodes() == g.num_nodes()) {
    wrong.push_back(IsomorphismLabeling(other));
  }
  for (std::size_t i = 0; i < wrong.size(); ++i) {
    const auto map = FindIsomorphism(g, wrong[i], permuted);
    if (map) {
      EXPECT_TRUE(IsIsomorphismMap(g, permuted, *map)) << i;
    }
  }
}

// Verified orbit counts, pinned to the values the rank-iteration refiner
// produced, so a change to the refiner cannot quietly merge or split
// orbits.
TEST(Canonical, VerifiedOrbitCountsArePinned) {
  const std::vector<std::pair<const char*, std::size_t>> expected = {
      {"butterfly:16", 5}, {"dwt:16,2", 4}, {"mvm:4,4", 12}, {"kary:3,3", 4}};
  for (const auto& [spec, orbits] : expected) {
    EXPECT_EQ(ComputeOrbits(BuiltinOrDie(spec)).num_orbits, orbits) << spec;
  }
}

TEST(Recognition, IdentifiesChainKaryAndSerializedDwt) {
  const RecognitionResult chain = RecognizeFamily(testing::MakeChain(9));
  EXPECT_EQ(chain.family, GraphFamily::kChain);
  EXPECT_EQ(chain.label, "chain:9");

  const RecognitionResult kary =
      RecognizeFamily(BuildPerfectTree(2, 4).graph);
  EXPECT_EQ(kary.family, GraphFamily::kKaryTree);
  EXPECT_EQ(kary.label, "kary:2,4");
  EXPECT_EQ(kary.param0, 2);
  EXPECT_EQ(kary.param1, 4);

  // Serialization round trip: the parsed graph carries no DwtGraph
  // wrapper, recognition must rediscover (n, d) and verify the mapping.
  const DwtGraph dwt = BuildDwt(16, 2);
  const GraphParseResult parsed = ParseGraphText(ToText(dwt.graph));
  ASSERT_TRUE(parsed.ok);
  const RecognitionResult rec = RecognizeFamily(parsed.graph);
  EXPECT_EQ(rec.family, GraphFamily::kDwt);
  EXPECT_EQ(rec.label, "dwt:16,2");
  EXPECT_EQ(rec.param0, 16);
  EXPECT_EQ(rec.param1, 2);
  ASSERT_EQ(rec.to_reference.size(), parsed.graph.num_nodes());
  // Recognition hands over the reference it verified the mapping against.
  ASSERT_TRUE(rec.reference.has_value());
  EXPECT_TRUE(
      IsIsomorphismMap(parsed.graph, rec.reference->graph, rec.to_reference));
  EXPECT_TRUE(rec.reference->graph ==
              BuildDwt(rec.param0, static_cast<int>(rec.param1), rec.config)
                  .graph);
  EXPECT_FALSE(chain.reference.has_value());
  EXPECT_FALSE(kary.reference.has_value());
}

TEST(Recognition, IsConservativeOnNonFamilyGraphs) {
  EXPECT_FALSE(RecognizeFamily(testing::MakeDiamond()).recognized());
  EXPECT_FALSE(RecognizeFamily(BuildDwt(8, 2).graph).family ==
               GraphFamily::kKaryTree);
}

TEST(Analyzer, RegistryHasStableIds) {
  EXPECT_GE(AllAnalysisPasses().size(), 6u);
  EXPECT_NE(FindAnalysisPass("bound-certificates"), nullptr);
  EXPECT_NE(FindAnalysisPass("canonical-hash"), nullptr);
  EXPECT_NE(FindAnalysisPass("graph-irrelevant-node"), nullptr);
  EXPECT_EQ(FindAnalysisPass("no-such-pass"), nullptr);
}

TEST(Analyzer, AnalyzeGraphTiesTheLayersTogether) {
  const Graph g = BuildDwt(16, 2).graph;
  AnalysisOptions options;
  options.budget = 48;
  const GraphAnalysis analysis = AnalyzeGraph(g, options);
  EXPECT_EQ(analysis.budget, 48);
  EXPECT_EQ(analysis.hash, HashGraph(g));
  EXPECT_EQ(analysis.recognition.label, "dwt:16,2");
  ASSERT_EQ(analysis.certificates.size(), 3u);
  ASSERT_EQ(analysis.checks.size(), 3u);
  for (const CertificateCheck& check : analysis.checks) {
    EXPECT_TRUE(check.ok) << check.error;
  }
  EXPECT_EQ(analysis.best_bound, 640);  // strictly above ALB 512
  EXPECT_GT(analysis.best_bound, AlgorithmicLowerBound(g));
}

TEST(Analyzer, BudgetDefaultsToMinValidBudget) {
  const Graph g = testing::MakeDiamond();
  const GraphAnalysis analysis = AnalyzeGraph(g);
  EXPECT_EQ(analysis.budget, MinValidBudget(g));
}

TEST(Analyzer, JsonAndTextRenderings) {
  const GraphAnalysis analysis = AnalyzeGraph(BuildPerfectTree(2, 3).graph);
  const std::string json = GraphAnalysisToJson(analysis);
  EXPECT_NE(json.find("\"wrbpg-ganalysis-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"certificates\""), std::string::npos);
  EXPECT_NE(json.find("\"recognition\""), std::string::npos);
  const std::string text = RenderGraphAnalysis(analysis);
  EXPECT_NE(text.find("best bound"), std::string::npos);
}

TEST(Analyzer, StructureRulesMatchLintSemantics) {
  // A node feeding nothing relevant: 0 -> 1 (sink), 2 isolated. The
  // builder's disjointness gate is relaxed, as in the lint tests.
  GraphBuilder b;
  b.AddNode(1);
  b.AddNode(1);
  b.AddNode(1);
  b.AddEdge(0, 1);
  const Graph g =
      b.BuildOrDie({.require_disjoint_sources_sinks = false});
  const std::vector<GraphFact> facts = RunStructureRules(g);
  ASSERT_FALSE(facts.empty());
  bool isolated = false;
  for (const GraphFact& fact : facts) {
    if (fact.pass_id == "graph-isolated-node" && fact.node == 2) {
      isolated = true;
    }
  }
  EXPECT_TRUE(isolated);
}

}  // namespace
}  // namespace wrbpg
