// Seeded relabeling of a graph, shared by the test suite and the benches
// (no gtest dependency, so bench binaries can include it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/types.h"

namespace wrbpg::testing {

// Rebuilds `graph` with node ids shuffled by a seeded permutation (old id
// v becomes perm[v]); weights, names and edges travel with their nodes,
// so the result is an isomorphic copy — structurally the same instance,
// byte-wise a different one.
inline Graph PermuteGraph(const Graph& graph, std::uint64_t seed) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<NodeId> inv(n);
  for (NodeId v = 0; v < n; ++v) inv[perm[v]] = v;
  GraphBuilder builder;
  for (NodeId j = 0; j < n; ++j) {
    builder.AddNode(graph.weight(inv[j]), graph.name(inv[j]));
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : graph.children(v)) {
      builder.AddEdge(perm[v], perm[c]);
    }
  }
  return builder.BuildOrDie();
}

}  // namespace wrbpg::testing
