// Shared helpers for the wrbpg test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/types.h"
#include "tests/permute_graph.h"

namespace wrbpg::testing {

// A tiny diamond CDAG used across core tests:
//
//   0   1      sources (weights w0, w1)
//   mid layer: 2 reads {0, 1}; 3 reads {1}
//   sink:      4 reads {2, 3}
inline Graph MakeDiamond(std::vector<Weight> weights = {1, 1, 1, 1, 1}) {
  GraphBuilder b;
  for (Weight w : weights) b.AddNode(w);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  return b.BuildOrDie();
}

// Path graph 0 -> 1 -> ... -> (n-1).
inline Graph MakeChain(std::size_t n, Weight w = 1) {
  GraphBuilder b;
  for (std::size_t i = 0; i < n; ++i) b.AddNode(w);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return b.BuildOrDie();
}

// `graph` plus one isolated node of weight `w` (id graph.num_nodes()).
// The node is both a source and a sink, so the builder's disjointness
// check is relaxed.
inline Graph WithIsolatedNode(const Graph& graph, Weight w) {
  GraphBuilder b;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) b.AddNode(graph.weight(v));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId child : graph.children(v)) b.AddEdge(v, child);
  }
  b.AddNode(w);
  return b.BuildOrDie({.require_disjoint_sources_sinks = false});
}

// Asserts validity and returns the simulation result for diagnostics.
inline SimResult ExpectValid(const Graph& g, Weight budget,
                             const Schedule& s,
                             const SimOptions& options = {}) {
  const SimResult r = Simulate(g, budget, s, options);
  EXPECT_TRUE(r.valid) << "move " << r.error_index << ": " << r.error;
  return r;
}

}  // namespace wrbpg::testing
