// Node-weighted computational DAG (CDAG) G = (V, E, w) of the WRBPG.
//
// Immutable after construction (build via GraphBuilder). Adjacency is stored
// in CSR form; parents(v) corresponds to the paper's H(v), sources() to
// A(G), and sinks() to Z(G).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/types.h"

namespace wrbpg {

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(weights_.size());
  }
  std::size_t num_edges() const noexcept { return parent_data_.size(); }

  Weight weight(NodeId v) const { return weights_[v]; }
  const std::vector<Weight>& weights() const noexcept { return weights_; }

  // Immediate predecessors H(v) (empty for sources).
  std::span<const NodeId> parents(NodeId v) const {
    return {parent_data_.data() + parent_offsets_[v],
            parent_offsets_[v + 1] - parent_offsets_[v]};
  }
  // Immediate successors (empty for sinks).
  std::span<const NodeId> children(NodeId v) const {
    return {child_data_.data() + child_offsets_[v],
            child_offsets_[v + 1] - child_offsets_[v]};
  }

  std::size_t in_degree(NodeId v) const { return parents(v).size(); }
  std::size_t out_degree(NodeId v) const { return children(v).size(); }

  bool is_source(NodeId v) const { return in_degree(v) == 0; }
  bool is_sink(NodeId v) const { return out_degree(v) == 0; }

  // A(G): nodes with in-degree zero, ascending by id.
  const std::vector<NodeId>& sources() const noexcept { return sources_; }
  // Z(G): nodes with out-degree zero, ascending by id.
  const std::vector<NodeId>& sinks() const noexcept { return sinks_; }

  // A topological order of V (sources first). Stable across runs.
  const std::vector<NodeId>& topological_order() const noexcept {
    return topo_order_;
  }

  // Optional human-readable node name ("" when unnamed).
  const std::string& name(NodeId v) const {
    static const std::string kUnnamed;
    return names_.empty() ? kUnnamed : names_[v];
  }

  // Structural identity: equal weights, names and adjacency — exactly
  // when the two graphs encode to the same wrbpg-bin-v1 bytes, because
  // GraphBuilder sorts every neighbor row and derives the rest.
  friend bool operator==(const Graph&, const Graph&) = default;

  // Sum of node weights over all of V.
  Weight total_weight() const noexcept { return total_weight_; }

 private:
  friend class GraphBuilder;

  std::vector<Weight> weights_;
  std::vector<std::string> names_;  // empty when no node is named
  std::vector<std::size_t> parent_offsets_;  // size num_nodes()+1
  std::vector<NodeId> parent_data_;
  std::vector<std::size_t> child_offsets_;  // size num_nodes()+1
  std::vector<NodeId> child_data_;
  std::vector<NodeId> sources_;
  std::vector<NodeId> sinks_;
  std::vector<NodeId> topo_order_;
  Weight total_weight_ = 0;
};

}  // namespace wrbpg
