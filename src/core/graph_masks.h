// Word-span per-graph masks of the exact search and StateBound
// (DESIGN.md §14.3).
//
// Every WRBPG move predicate is a set operation over the (red, blue)
// configuration and a per-graph constant: the loadable set is
// `blue & ~red`, the storable set `red & ~blue`, the deletable set `red`,
// and the computable set is `~red & ~sources` filtered by
// `parents(v) ⊆ red`. GraphMasks holds the per-graph constants (sources,
// sinks, valid node ids) as arrays of 64-bit words (node v lives in word
// v/64, bit v%64), so the set operations are word-parallel AND/ANDNOT ops
// plus ctz iteration. The `parents(v) ⊆ red` filter walks the Graph's CSR
// row (AllSet): the search, its bound and the rules kernel (core/rules.h)
// share that one adjacency, and the masks cost O(n/64) words to build.
//
// Built once per Graph, read-only afterwards: safe to share across
// threads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

class GraphMasks {
 public:
  explicit GraphMasks(const Graph& graph)
      : words_((static_cast<std::size_t>(graph.num_nodes()) + 63) / 64) {
    if (words_ == 0) words_ = 1;
    const NodeId n = graph.num_nodes();
    sources_.assign(words_, 0);
    sinks_.assign(words_, 0);
    nodes_.assign(words_, 0);
    for (NodeId v = 0; v < n; ++v) {
      nodes_[v / 64] |= 1ull << (v % 64);
      if (graph.is_source(v)) sources_[v / 64] |= 1ull << (v % 64);
      if (graph.is_sink(v)) sinks_[v / 64] |= 1ull << (v % 64);
    }
  }

  const std::uint64_t* sources() const { return sources_.data(); }
  const std::uint64_t* sinks() const { return sinks_.data(); }
  // All valid node ids set: masks out the unused high bits of the last word.
  const std::uint64_t* nodes() const { return nodes_.data(); }

  bool is_source(NodeId v) const { return Test(sources_.data(), v); }

  static bool Test(const std::uint64_t* mask, NodeId v) {
    return ((mask[v >> 6] >> (v & 63)) & 1) != 0;
  }
  static void Set(std::uint64_t* mask, NodeId v) {
    mask[v >> 6] |= 1ull << (v & 63);
  }

  // True iff every node of `row` (a CSR row, e.g. Graph::parents(v)) is
  // set in the word-span mask `mask`: the M3 legality test.
  static bool AllSet(std::span<const NodeId> row, const std::uint64_t* mask) {
    for (const NodeId u : row) {
      if (!Test(mask, u)) return false;
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
};

}  // namespace wrbpg
