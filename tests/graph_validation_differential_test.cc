// GraphBuilder::Build is the only duplicate-edge and cycle check; the
// decoders (ParseGraphBinary, ParseGraphText) keep only the checks they
// can name a stream position for. This suite keeps the per-edge std::set
// validation all three used to make as a naive reference and runs it next
// to Build and both decoders over seeded random edge lists with injected
// duplicates, self-loops, out-of-range endpoints, cycles and isolated
// nodes. All four must agree on accept/reject, and on a duplicate they
// must name the same first repeated pair in input order, at its line or
// offset.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/serialize.h"

namespace wrbpg {
namespace {

using Edge = std::pair<NodeId, NodeId>;

struct Case {
  std::vector<Weight> weights;
  std::vector<Edge> edges;  // input order
};

// The naive reference: the per-edge pass the decoders and Build each made
// (endpoints, self-loop, a std::set of seen pairs, in input order), then
// the whole-graph rules (isolated nodes, then cycles) by brute force.
struct Verdict {
  bool ok = true;
  std::string kind;      // range | self-loop | duplicate | isolated | cycle
  std::size_t edge = 0;  // input index, for the edge kinds
};

Verdict NaiveValidate(const Case& c) {
  const std::size_t n = c.weights.size();
  std::set<Edge> seen;
  for (std::size_t e = 0; e < c.edges.size(); ++e) {
    const auto [u, v] = c.edges[e];
    if (u >= n || v >= n) return {false, "range", e};
    if (u == v) return {false, "self-loop", e};
    if (!seen.emplace(u, v).second) return {false, "duplicate", e};
  }
  std::vector<std::size_t> in(n), out(n);
  for (const auto& [u, v] : c.edges) {
    ++out[u];
    ++in[v];
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (in[v] == 0 && out[v] == 0) return {false, "isolated", 0};
  }
  // Strip parentless nodes one at a time; whatever is left is on a cycle.
  std::vector<bool> removed(n);
  for (std::size_t left = n; left > 0; --left) {
    std::size_t pick = n;
    for (std::size_t v = 0; v < n && pick == n; ++v) {
      if (!removed[v] && in[v] == 0) pick = v;
    }
    if (pick == n) return {false, "cycle", 0};
    removed[pick] = true;
    for (const auto& [u, v] : c.edges) {
      if (u == pick) --in[v];
    }
  }
  return {};
}

// wrbpg-bin-v1 bytes of an arbitrary (possibly invalid) edge list,
// written independently of ToBinary per docs/FORMATS.md.
std::string EncodeBinary(const Case& c) {
  std::string out("WBIN\x01\x01\x00\x00", 8);
  auto put = [&out](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(c.weights.size(), 4);
  put(c.edges.size(), 4);
  for (const Weight w : c.weights) put(static_cast<std::uint64_t>(w), 8);
  put(0, 1);  // no names
  for (const auto& [u, v] : c.edges) {
    put(u, 4);
    put(v, 4);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : out) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 0x100000001b3ULL;
  }
  put(h, 8);
  return out;
}

std::string EncodeText(const Case& c) {
  std::string out = "wrbpg-graph v1\n";
  for (std::size_t v = 0; v < c.weights.size(); ++v) {
    out += "node " + std::to_string(v) + " " + std::to_string(c.weights[v]) +
           "\n";
  }
  for (const auto& [u, v] : c.edges) {
    out += "edge " + std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  return out;
}

// Where each decoder locates edge `e` of `c`: the text line, and the
// binary offset just past the edge's record.
std::size_t TextLine(const Case& c, std::size_t e) {
  return 1 + c.weights.size() + e + 1;
}
std::size_t BinaryOffset(const Case& c, std::size_t e) {
  return 8 + 4 + 4 + 8 * c.weights.size() + 1 + 8 * (e + 1);
}

// A random DAG with no isolated node (every node v > 0 takes a parent
// below it, plus extra forward edges) under shuffled labels and edge
// order, then up to two injected defects.
Case RandomCase(std::mt19937_64& rng, std::map<std::string, int>& injected) {
  const auto below = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  const std::size_t n = 2 + below(30);
  Case c;
  for (std::size_t v = 0; v < n; ++v) {
    c.weights.push_back(static_cast<Weight>(1 + below(64)));
  }
  std::set<Edge> dag;
  for (std::size_t v = 1; v < n; ++v) {
    dag.emplace(static_cast<NodeId>(below(v)), static_cast<NodeId>(v));
  }
  for (std::size_t i = below(n); i > 0; --i) {
    const auto u = static_cast<NodeId>(below(n));
    const auto v = static_cast<NodeId>(below(n));
    if (u < v) dag.emplace(u, v);
  }
  std::vector<NodeId> label(n);
  std::iota(label.begin(), label.end(), NodeId{0});
  std::shuffle(label.begin(), label.end(), rng);
  for (const auto& [u, v] : dag) c.edges.emplace_back(label[u], label[v]);
  std::shuffle(c.edges.begin(), c.edges.end(), rng);

  auto insert_at_random = [&](Edge edge) {
    c.edges.insert(c.edges.begin() + static_cast<std::ptrdiff_t>(
                                         below(c.edges.size() + 1)),
                   edge);
  };
  static constexpr std::array<const char*, 6> kDefects = {
      "none", "duplicate", "self-loop", "range", "cycle", "isolated"};
  const std::size_t defects = 1 + below(4) / 3;  // one, sometimes two
  for (std::size_t d = 0; d < defects; ++d) {
    const std::string defect = kDefects[below(kDefects.size())];
    ++injected[defect];
    const auto node = static_cast<NodeId>(below(n));
    if (defect == "duplicate") {
      for (std::size_t k = 1 + below(3); k > 0; --k) {
        insert_at_random(c.edges[below(c.edges.size())]);
      }
    } else if (defect == "self-loop") {
      insert_at_random({node, node});
    } else if (defect == "range") {
      const auto outside = static_cast<NodeId>(n + below(5));
      insert_at_random(below(2) == 0 ? Edge{node, outside}
                                     : Edge{outside, node});
    } else if (defect == "cycle") {
      // Walk down from a node with children and close the path back to it.
      const Edge seed_edge = c.edges[below(c.edges.size())];
      NodeId at = seed_edge.second;
      for (std::size_t steps = below(4); steps > 0; --steps) {
        std::vector<NodeId> next;
        for (const auto& [u, v] : c.edges) {
          if (u == at) next.push_back(v);
        }
        if (next.empty()) break;
        at = next[below(next.size())];
      }
      if (at != seed_edge.first) insert_at_random({at, seed_edge.first});
    } else if (defect == "isolated") {
      c.weights.push_back(static_cast<Weight>(1 + below(64)));
    }
  }
  return c;
}

TEST(GraphValidationDifferential, AgreesWithTheNaiveReference) {
  std::mt19937_64 rng(0x0dd5eed);
  std::map<std::string, int> injected;
  std::map<std::string, int> verdicts;
  for (int trial = 0; trial < 3000; ++trial) {
    const Case c = RandomCase(rng, injected);
    const Verdict ref = NaiveValidate(c);
    ++verdicts[ref.ok ? "ok" : ref.kind];
    SCOPED_TRACE("trial " + std::to_string(trial) + ", reference " +
                 (ref.ok ? "ok" : ref.kind) + "\n" + EncodeText(c));

    GraphBuilder builder;
    for (const Weight w : c.weights) builder.AddNode(w);
    for (const auto& [u, v] : c.edges) builder.AddEdge(u, v);
    const GraphBuilder::BuildResult built = builder.Build();
    const GraphParseResult binary = ParseGraphBinary(EncodeBinary(c));
    const GraphParseResult text = ParseGraphText(EncodeText(c));

    ASSERT_EQ(built.ok, ref.ok) << built.error;
    ASSERT_EQ(binary.ok, ref.ok) << binary.error;
    ASSERT_EQ(text.ok, ref.ok) << text.error;
    if (ref.ok) {
      EXPECT_TRUE(binary.graph == built.graph);
      EXPECT_TRUE(text.graph == built.graph);
      continue;
    }
    const bool stream_defect = std::any_of(
        c.edges.begin(), c.edges.end(), [&](const Edge& edge) {
          return edge.first >= c.weights.size() ||
                 edge.second >= c.weights.size() || edge.first == edge.second;
        });
    const auto [u, v] = c.edges[ref.edge];
    const std::string at_line =
        "line " + std::to_string(TextLine(c, ref.edge)) + ": ";
    const std::string at_offset =
        "offset " + std::to_string(BinaryOffset(c, ref.edge)) + ": ";
    if (ref.kind == "duplicate" && !stream_defect) {
      // Decoders check endpoints first, so with a stream defect anywhere
      // they report it instead; without one, every path names the pair.
      const std::string message = "duplicate edge (" + std::to_string(u) +
                                  "," + std::to_string(v) + ")";
      EXPECT_EQ(built.error, message);
      EXPECT_EQ(built.error_edge, ref.edge);
      EXPECT_EQ(binary.error, at_offset + message);
      EXPECT_EQ(text.error, at_line + message);
    } else if (ref.kind == "self-loop" || ref.kind == "range") {
      // The first edge-level defect is a stream defect: every path stops
      // at that same edge.
      EXPECT_EQ(built.error_edge, ref.edge) << built.error;
      EXPECT_EQ(binary.error.rfind(at_offset, 0), 0u) << binary.error;
      EXPECT_EQ(text.error.rfind(at_line, 0), 0u) << text.error;
      if (ref.kind == "self-loop") {
        for (const std::string* error :
             {&built.error, &binary.error, &text.error}) {
          EXPECT_NE(error->find("self-loop"), std::string::npos) << *error;
        }
      }
    } else if (ref.kind == "isolated" || ref.kind == "cycle") {
      EXPECT_EQ(built.error_edge, GraphBuilder::kNoEdge);
      for (const std::string* error :
           {&built.error, &binary.error, &text.error}) {
        EXPECT_NE(error->find(ref.kind), std::string::npos) << *error;
      }
    }
  }
  // Every defect was injected, and every verdict reached, many times.
  for (const char* kind :
       {"none", "duplicate", "self-loop", "range", "cycle", "isolated"}) {
    EXPECT_GE(injected[kind], 200) << kind;
  }
  for (const char* kind :
       {"ok", "duplicate", "self-loop", "range", "cycle", "isolated"}) {
    EXPECT_GE(verdicts[kind], 100) << kind;
  }
}

TEST(GraphValidationDifferential, NamesTheFirstRepeatInInputOrder) {
  // (2,3) repeats before (0,1) does, although (0,1) sorts first.
  const Case c{{1, 1, 1, 1}, {{2, 3}, {0, 1}, {2, 3}, {0, 1}, {1, 2}}};
  const Verdict ref = NaiveValidate(c);
  ASSERT_EQ(ref.kind, "duplicate");
  ASSERT_EQ(ref.edge, 2u);

  GraphBuilder builder;
  for (const Weight w : c.weights) builder.AddNode(w);
  for (const auto& [u, v] : c.edges) builder.AddEdge(u, v);
  const GraphBuilder::BuildResult built = builder.Build();
  EXPECT_EQ(built.error, "duplicate edge (2,3)");
  EXPECT_EQ(built.error_edge, 2u);
  EXPECT_EQ(ParseGraphText(EncodeText(c)).error,
            "line 8: duplicate edge (2,3)");
  EXPECT_EQ(ParseGraphBinary(EncodeBinary(c)).error,
            "offset " + std::to_string(BinaryOffset(c, 2)) +
                ": duplicate edge (2,3)");
}

}  // namespace
}  // namespace wrbpg
