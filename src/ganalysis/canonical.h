// Canonical structure analysis: color refinement, iso-invariant hashing,
// and verified vertex orbits (DESIGN.md §12).
//
// The refinement computes the coarsest equitable partition of V that
// refines the seed partition by (weight, in-degree, out-degree): the
// stable partition of 1-dimensional Weisfeiler-Leman, reached by the
// worklist refinement of nauty, bliss and Traces (Hopcroft; Paige-Tarjan;
// Cardon-Crochemore) instead of by rounds. The partition is ORDERED: its
// cells are contiguous ranges of one position array, and a queued cell W
// splits every cell by how many children, then how many parents, each
// vertex has in W, fragments in ascending count order. Which cell splits
// first, where each fragment lands and which fragments are queued depend
// only on cell positions and counts, never on vertex ids, so a vertex's
// color — the rank of its cell in position order — is an
// isomorphism-invariant integer: two isomorphic graphs produce identical
// color histograms, which is what makes HashGraph iso-invariant by
// construction.
//
// Cost: with Hopcroft's "all fragments but the largest" queueing rule a
// vertex lies in a processed splitter O(log n) times, so a refinement
// costs O((n + m) log n) up to the sort that orders each split by count.
// Individualizing a vertex splits it off as a singleton and queues only
// that singleton, so the individualize-and-refine labelings behind
// FindIsomorphism and ComputeOrbits refine incrementally, never from
// scratch. The labelings are nearly all of FindIsomorphism's cost, so a
// caller that keeps one side's labeling (IsomorphismLabeling) pays for
// the other side's only.
//
// Orbit contract: refinement classes only OVER-approximate the true
// automorphism orbits (refinement-equivalent vertices need not be mapped
// to each other by any automorphism), so ComputeOrbits never trusts the
// colors alone. Each candidate pair is confirmed by building an explicit
// vertex bijection (individualize-and-refine on both sides) and checking
// that it preserves every edge and every weight. The returned partition
// is therefore a SUB-partition of the true orbits: it may split an orbit
// (when the heuristic alignment fails) but never merges two distinct
// orbits — the direction soundness-critical consumers (root-move pruning
// in the searcher) require.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "core/types.h"

namespace wrbpg {

// Stable coloring. colors[v] is the rank (0-based) of v's cell in the
// ordered stable partition; ranks are iso-invariant (see header comment).
struct ColorRefinement {
  std::vector<std::uint32_t> colors;
  std::uint32_t num_colors = 0;
};

ColorRefinement RefineColors(const Graph& graph);

// Iso-invariant structural hash: equal for isomorphic graphs, and in
// practice distinct for non-isomorphic ones (the hash folds in node/edge
// counts, the number of colors, each color's (size, weight), and the
// edge color-pair multiset; refinement-equivalent non-isomorphic graphs
// can collide, which is the standard 1-WL completeness caveat).
using GraphHash = std::uint64_t;

GraphHash HashGraph(const Graph& graph);

// Verified automorphism classes. orbit_of[v] is the smallest vertex id in
// v's class; vertices share a class only when an explicit automorphism
// mapping one to the other was constructed and checked.
struct OrbitPartition {
  std::vector<NodeId> orbit_of;
  std::size_t num_orbits = 0;

  bool SameOrbit(NodeId u, NodeId v) const {
    return orbit_of[u] == orbit_of[v];
  }
};

OrbitPartition ComputeOrbits(const Graph& graph);

// True when `map` (a is mapped to map[a] in `b`) is a weight- and
// edge-preserving bijection between the two graphs. Linear: one pass with
// a stamp array over the parent rows.
bool IsIsomorphismMap(const Graph& a, const Graph& b,
                      const std::vector<NodeId>& map);

// Individualize-and-refine labeling: from the stable partition, the
// smallest-id vertex of the first non-singleton cell is individualized
// until the partition is discrete; labeling[v] is then v's position, a
// permutation of 0..n-1. It depends on vertex ids, so it is NOT a
// canonical form (HashGraph is the iso-invariant identity); it is what
// FindIsomorphism aligns. Costs one refinement plus one incremental
// refinement per individualized vertex — nearly all of FindIsomorphism.
std::vector<std::uint32_t> IsomorphismLabeling(const Graph& graph);

// Heuristic isomorphism search: aligns a's labeling with b's (the vertex
// labeled L in a maps to the vertex labeled L in b) and verifies the
// induced bijection explicitly. Returns the verified mapping
// (a-id -> b-id), or nullopt when the alignment fails — which is
// conservative, never wrong. Complete in practice for the regular
// dataflow families (dwt/kary/chain/mvm/butterfly).
//
// `a_labeling` must be IsomorphismLabeling(a) for the result to equal the
// two-graph form's; a caller that matches many graphs against one stored
// graph computes that labeling once, and each call then labels only `b`,
// about half the two-graph cost. Any other labeling is safe: one of the
// wrong size yields nullopt, and whatever map it induces is verified.
std::optional<std::vector<NodeId>> FindIsomorphism(
    const Graph& a, const std::vector<std::uint32_t>& a_labeling,
    const Graph& b);

// The same search labeling both graphs:
// FindIsomorphism(a, IsomorphismLabeling(a), b), after a size check.
std::optional<std::vector<NodeId>> FindIsomorphism(const Graph& a,
                                                   const Graph& b);

}  // namespace wrbpg
