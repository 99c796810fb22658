// Mutable builder producing validated, immutable Graphs.
//
// Build() enforces the WRBPG model preconditions from Sec 2.1: positive
// weights, no self-loops, no duplicate edges, acyclicity, and (optionally)
// A(G) ∩ Z(G) = ∅ — the paper assumes sources and sinks are disjoint, but
// single-node graphs are useful in tests, so the check can be relaxed.
//
// Build() is the one place duplicate edges and cycles are detected; the
// text and binary decoders (core/serialize.h, core/binio.h) feed it and
// keep only the checks that need a stream position.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

class GraphBuilder {
 public:
  // Adds a node with the given weight (> 0) and optional debug name.
  NodeId AddNode(Weight weight);
  NodeId AddNode(Weight weight, std::string name);

  // Adds a directed edge u -> v. Both endpoints must already exist.
  void AddEdge(NodeId u, NodeId v);

  NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(weights_.size());
  }

  struct BuildOptions {
    // Enforce the paper's A(G) ∩ Z(G) = ∅ assumption.
    bool require_disjoint_sources_sinks = true;
  };

  static constexpr std::size_t kNoEdge =
      std::numeric_limits<std::size_t>::max();

  struct BuildResult {
    Graph graph;
    bool ok = false;
    std::string error;  // set when !ok
    // AddEdge index of the edge `error` names (an endpoint out of range, a
    // self-loop, or the second occurrence of a duplicate edge); kNoEdge
    // for whole-graph errors. Decoders map it back to a line or offset.
    std::size_t error_edge = kNoEdge;
  };

  // Validates and produces the Graph. The builder may be reused afterwards.
  BuildResult Build(const BuildOptions& options) const;
  BuildResult Build() const { return Build(BuildOptions{}); }

  // Convenience for constructions that are correct by design (dataflow
  // generators, tests): aborts with the validation message on failure.
  Graph BuildOrDie(const BuildOptions& options) const;
  Graph BuildOrDie() { return BuildOrDie(BuildOptions{}); }

 private:
  std::vector<Weight> weights_;
  // Names up to the last named node (empty while every node is unnamed);
  // nodes past its end are unnamed.
  std::vector<std::string> names_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace wrbpg
