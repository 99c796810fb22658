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
// scratch.
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
// edge-preserving bijection between the two graphs.
bool IsIsomorphismMap(const Graph& a, const Graph& b,
                      const std::vector<NodeId>& map);

// Heuristic isomorphism search: labels each graph by individualize-and-
// refine (always the smallest-id vertex of the first non-singleton cell),
// aligns the two labelings and verifies the induced bijection explicitly.
// Returns the verified mapping (a-id -> b-id), or nullopt when the
// alignment fails — which is conservative, never wrong. Complete in
// practice for the regular dataflow families (dwt/kary/chain/mvm/butterfly).
std::optional<std::vector<NodeId>> FindIsomorphism(const Graph& a,
                                                   const Graph& b);

}  // namespace wrbpg
