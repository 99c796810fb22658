#include "ganalysis/recognition.h"

#include <algorithm>
#include <string>
#include <utility>

#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/canonical.h"

namespace wrbpg {

const char* ToString(GraphFamily family) {
  switch (family) {
    case GraphFamily::kUnknown: return "unknown";
    case GraphFamily::kChain: return "chain";
    case GraphFamily::kKaryTree: return "kary-tree";
    case GraphFamily::kDwt: return "dwt";
  }
  return "?";
}

namespace {

// Depth of the in-tree below the root, in edges along the longest
// leaf-to-root path (== the number of internal levels when perfect).
int TreeDepth(const Graph& graph, NodeId root) {
  std::vector<int> depth(graph.num_nodes(), 0);
  int max_depth = 0;
  // parents(v) are the tree children; topological order visits them
  // before v, so walk the order REVERSED from the root down.
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (v == root) depth[v] = 0;
    for (NodeId p : graph.parents(v)) {
      depth[p] = depth[v] + 1;
      max_depth = std::max(max_depth, depth[p]);
    }
  }
  return max_depth;
}

// True when every internal node has exactly k tree-children and every
// leaf sits at the same depth.
bool IsPerfectKary(const Graph& graph, NodeId root, int k) {
  std::vector<int> depth(graph.num_nodes(), 0);
  const auto& topo = graph.topological_order();
  int leaf_depth = -1;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    if (v == root) depth[v] = 0;
    const auto kids = graph.parents(v);
    if (kids.empty()) {
      if (leaf_depth == -1) leaf_depth = depth[v];
      if (depth[v] != leaf_depth) return false;
      continue;
    }
    if (static_cast<int>(kids.size()) != k) return false;
    for (NodeId p : kids) depth[p] = depth[v] + 1;
  }
  return true;
}

RecognitionResult RecognizeTree(const Graph& graph, NodeId root) {
  RecognitionResult r;
  int k = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    k = std::max(k, static_cast<int>(graph.in_degree(v)));
  }
  const int depth = TreeDepth(graph, root);
  if (k <= 1) {
    r.family = GraphFamily::kChain;
    r.param0 = graph.num_nodes();
    r.param1 = 0;
    r.label = "chain:" + std::to_string(graph.num_nodes());
    return r;
  }
  if (k > 8) return r;  // past the k! 2^k DP enumeration limit
  r.family = GraphFamily::kKaryTree;
  r.param0 = k;
  r.param1 = depth;
  r.label = (IsPerfectKary(graph, root, k) ? "kary:" : "tree:") +
            std::to_string(k) + "," + std::to_string(depth);
  return r;
}

RecognitionResult RecognizeDwt(const Graph& graph) {
  RecognitionResult r;
  const auto n = static_cast<std::int64_t>(graph.sources().size());
  if (n < 2 || graph.num_nodes() == 0) return r;

  // Uniform weights per role are a DWT invariant; infer the precision.
  const Weight ws = graph.weight(graph.sources().front());
  Weight wc = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.is_source(v)) {
      if (graph.weight(v) != ws) return r;
    } else if (wc == 0) {
      wc = graph.weight(v);
    } else if (graph.weight(v) != wc) {
      return r;
    }
  }
  if (wc == 0) return r;  // no non-source nodes

  // Node count n + Σ_{i=0..d-1} n/2^i is strictly increasing in d, so at
  // most one d can match; verify by explicit isomorphism, never by
  // counting alone.
  std::int64_t total = n;
  for (int d = 1; DwtParamsValid(n, d); ++d) {
    total += n >> (d - 1);
    if (total > graph.num_nodes()) break;
    if (total != graph.num_nodes()) continue;
    DwtGraph ref = BuildDwt(n, d, PrecisionConfig{ws, wc});
    auto map = FindIsomorphism(graph, ref.graph);
    if (!map) continue;
    r.family = GraphFamily::kDwt;
    r.param0 = n;
    r.param1 = d;
    r.config = PrecisionConfig{ws, wc};
    r.reference = std::move(ref);
    r.to_reference = std::move(*map);
    r.label = "dwt:" + std::to_string(n) + "," + std::to_string(d);
    return r;
  }
  return r;
}

}  // namespace

RecognitionResult RecognizeFamily(const Graph& graph) {
  if (graph.num_nodes() < 2) return {};
  if (auto root = TreeRoot(graph)) return RecognizeTree(graph, *root);
  return RecognizeDwt(graph);
}

}  // namespace wrbpg
