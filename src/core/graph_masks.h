// Word-span move-legality masks of the exact search and StateBound
// (DESIGN.md §14.3).
//
// Every WRBPG move predicate is a set operation over the (red, blue)
// configuration and a per-graph constant: the loadable set is
// `blue & ~red`, the storable set `red & ~blue`, the deletable set `red`,
// and the computable set is `~red & ~sources` filtered by
// `parents(v) ⊆ red`. GraphMasks precomputes the per-graph constants as
// arrays of 64-bit words (node v lives in word v/64, bit v%64) so those
// predicates become word-parallel AND/ANDNOT ops plus ctz iteration —
// no per-node branching. One instance serves graphs of any width; the
// packed (≤32-node) representation reads word 0 and truncates.
//
// The parent masks are a dense n x ceil(n/64)-word matrix (18.9 MB at
// 12,286 nodes), worth building once per search but not once per replay:
// schedule replay (core/rules.h) tests M3 over the CSR parents instead.
//
// Built once per Graph, read-only afterwards: safe to share across
// threads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

class GraphMasks {
 public:
  // `with_children` additionally builds per-node child masks (used by the
  // heuristic's M4 delta test; the searchers do not need them).
  explicit GraphMasks(const Graph& graph, bool with_children = false)
      : words_((static_cast<std::size_t>(graph.num_nodes()) + 63) / 64) {
    if (words_ == 0) words_ = 1;
    const NodeId n = graph.num_nodes();
    sources_.assign(words_, 0);
    sinks_.assign(words_, 0);
    nodes_.assign(words_, 0);
    parents_.assign(words_ * n, 0);
    if (with_children) children_.assign(words_ * n, 0);
    for (NodeId v = 0; v < n; ++v) {
      nodes_[v / 64] |= 1ull << (v % 64);
      if (graph.is_source(v)) sources_[v / 64] |= 1ull << (v % 64);
      if (graph.is_sink(v)) sinks_[v / 64] |= 1ull << (v % 64);
      for (NodeId p : graph.parents(v)) {
        parents_[words_ * v + p / 64] |= 1ull << (p % 64);
        if (with_children) children_[words_ * p + v / 64] |= 1ull << (v % 64);
      }
    }
  }

  const std::uint64_t* sources() const { return sources_.data(); }
  const std::uint64_t* sinks() const { return sinks_.data(); }
  // All valid node ids set: masks out the unused high bits of the last word.
  const std::uint64_t* nodes() const { return nodes_.data(); }
  const std::uint64_t* parents_of(NodeId v) const {
    return &parents_[words_ * v];
  }
  const std::uint64_t* children_of(NodeId v) const {
    return &children_[words_ * v];
  }

  bool is_source(NodeId v) const {
    return ((sources_[v / 64] >> (v % 64)) & 1) != 0;
  }

  // True iff every parent of v is set in the word-span mask `red`.
  bool ParentsSubsetOf(NodeId v, const std::uint64_t* red) const {
    const std::uint64_t* p = parents_of(v);
    for (std::size_t w = 0; w < words_; ++w) {
      if ((p[w] & ~red[w]) != 0) return false;
    }
    return true;
  }

  // Iterates the set bits of an n-word mask in ascending node order —
  // the order the determinism contract's canonical schedule relies on.
  template <typename Fn>
  static void ForEachSetBit(const std::uint64_t* mask, std::size_t words,
                            Fn&& fn) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t m = mask[w]; m != 0; m &= m - 1) {
        fn(static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(m))));
      }
    }
  }

  static bool AnySet(const std::uint64_t* mask, std::size_t words) {
    for (std::size_t w = 0; w < words; ++w) {
      if (mask[w] != 0) return true;
    }
    return false;
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> sources_;
  std::vector<std::uint64_t> sinks_;
  std::vector<std::uint64_t> nodes_;
  std::vector<std::uint64_t> parents_;   // words_ words per node
  std::vector<std::uint64_t> children_;  // words_ words per node (optional)
};

}  // namespace wrbpg
