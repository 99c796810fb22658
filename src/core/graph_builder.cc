#include "core/graph_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace wrbpg {
namespace {

// AddEdge index of the first edge that repeats an earlier one, scanning in
// insertion order. Only called once the sorted rows have shown that some
// edge repeats: a stable sort groups equal edges with their occurrences
// in insertion order, so each group's later members are repeats.
std::size_t FirstRepeatedEdge(
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return edges[a] < edges[b];
                   });
  std::size_t first = GraphBuilder::kNoEdge;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (edges[order[i]] == edges[order[i - 1]]) {
      first = std::min(first, order[i]);
    }
  }
  return first;
}

}  // namespace

NodeId GraphBuilder::AddNode(Weight weight) {
  weights_.push_back(weight);
  return static_cast<NodeId>(weights_.size() - 1);
}

NodeId GraphBuilder::AddNode(Weight weight, std::string name) {
  const NodeId v = AddNode(weight);
  if (!name.empty()) {
    names_.resize(static_cast<std::size_t>(v) + 1);
    names_[v] = std::move(name);
  }
  return v;
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) { edges_.emplace_back(u, v); }

GraphBuilder::BuildResult GraphBuilder::Build(
    const BuildOptions& options) const {
  BuildResult result;
  const NodeId n = num_nodes();

  Weight total = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (weights_[v] <= 0) {
      result.error = "node " + std::to_string(v) + " has non-positive weight " +
                     std::to_string(weights_[v]);
      return result;
    }
    if (weights_[v] > kMaxTotalWeight - total) {
      result.error = "node " + std::to_string(v) +
                     " takes the total weight past the limit of 2^40 bits";
      return result;
    }
    total += weights_[v];
  }

  Graph g;
  g.weights_ = weights_;
  if (!names_.empty()) {
    g.names_ = names_;
    g.names_.resize(n);
  }
  g.total_weight_ = total;

  // CSR adjacency via counting sort over the edge list; the endpoint
  // checks ride the counting pass.
  g.parent_offsets_.assign(n + 1, 0);
  g.child_offsets_.assign(n + 1, 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto [u, v] = edges_[e];
    if (u >= n || v >= n) {
      result.error = "edge (" + std::to_string(u) + "," + std::to_string(v) +
                     ") references a node out of range";
      result.error_edge = e;
      return result;
    }
    if (u == v) {
      result.error = "self-loop on node " + std::to_string(u);
      result.error_edge = e;
      return result;
    }
    ++g.parent_offsets_[v + 1];
    ++g.child_offsets_[u + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    g.parent_offsets_[v + 1] += g.parent_offsets_[v];
    g.child_offsets_[v + 1] += g.child_offsets_[v];
  }
  g.parent_data_.resize(edges_.size());
  g.child_data_.resize(edges_.size());
  {
    std::vector<std::size_t> pfill(g.parent_offsets_.begin(),
                                   g.parent_offsets_.end() - 1);
    std::vector<std::size_t> cfill(g.child_offsets_.begin(),
                                   g.child_offsets_.end() - 1);
    for (const auto& [u, v] : edges_) {
      g.parent_data_[pfill[v]++] = u;
      g.child_data_[cfill[u]++] = v;
    }
  }
  // Deterministic neighbor order: sorting makes equality of graphs
  // independent of construction order, and turns a duplicate edge into
  // two equal neighbors in its child row.
  bool duplicate = false;
  for (NodeId v = 0; v < n; ++v) {
    std::sort(g.parent_data_.begin() +
                  static_cast<std::ptrdiff_t>(g.parent_offsets_[v]),
              g.parent_data_.begin() +
                  static_cast<std::ptrdiff_t>(g.parent_offsets_[v + 1]));
    const auto row_begin = g.child_data_.begin() +
                           static_cast<std::ptrdiff_t>(g.child_offsets_[v]);
    const auto row_end = g.child_data_.begin() +
                         static_cast<std::ptrdiff_t>(g.child_offsets_[v + 1]);
    std::sort(row_begin, row_end);
    duplicate =
        duplicate || std::adjacent_find(row_begin, row_end) != row_end;
  }
  if (duplicate) {
    result.error_edge = FirstRepeatedEdge(edges_);
    const auto [u, v] = edges_[result.error_edge];
    result.error = "duplicate edge (" + std::to_string(u) + "," +
                   std::to_string(v) + ")";
    return result;
  }

  for (NodeId v = 0; v < n; ++v) {
    if (g.parents(v).empty()) g.sources_.push_back(v);
    if (g.children(v).empty()) g.sinks_.push_back(v);
  }

  if (options.require_disjoint_sources_sinks) {
    for (NodeId v = 0; v < n; ++v) {
      if (g.parents(v).empty() && g.children(v).empty()) {
        result.error = "node " + std::to_string(v) +
                       " is both source and sink (isolated); the WRBPG "
                       "assumes A(G) and Z(G) are disjoint";
        return result;
      }
    }
  }

  // Kahn's algorithm: topological order + acyclicity check.
  std::vector<std::size_t> remaining(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    remaining[v] = g.in_degree(v);
    if (remaining[v] == 0) ready.push_back(v);
  }
  g.topo_order_.reserve(n);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId v = ready[head];
    g.topo_order_.push_back(v);
    for (NodeId c : g.children(v)) {
      if (--remaining[c] == 0) ready.push_back(c);
    }
  }
  if (g.topo_order_.size() != n) {
    result.error = "graph contains a cycle";
    return result;
  }

  result.graph = std::move(g);
  result.ok = true;
  return result;
}

Graph GraphBuilder::BuildOrDie(const BuildOptions& options) const {
  BuildResult r = Build(options);
  if (!r.ok) {
    std::fprintf(stderr, "GraphBuilder::BuildOrDie: %s\n", r.error.c_str());
    std::abort();
  }
  return std::move(r.graph);
}

}  // namespace wrbpg
