// Optimal scheduler for k-ary tree graphs — Eq. (6), Lemma 3.7, Theorem 3.8.
//
// For every node the DP enumerates all k! parent orderings and, per ordering,
// all 2^k keep-red/spill-blue decisions delta: a kept parent reduces the
// budget of the parents computed after it; a spilled parent pays 2*w (store
// plus reload) and is brought back just before the node computes:
//
//   P_t(v,b) = min over sigma, delta of
//       sum_i P_t(sigma(i), b - sum_{j<i} delta_j * w_sigma(j))
//     + 2 * sum_i (1 - delta_i) * w_sigma(i)
//
// Memoized on (node, budget). Theorem 3.8 bounds this to polynomial time for
// k = O(log log n); practical instances have k = O(1). Spilling a source is
// strictly dominated (its blue pebble is permanent, and moving it to the end
// of the ordering with delta=1 always saves 2*w), so ties never force an
// M2 onto a node that already holds blue — Generate() asserts this.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

class KaryTreeScheduler {
 public:
  // `graph` must be a rooted in-tree (TreeRoot(graph) non-empty) with
  // in-degree at most 8 (k! * 2^k enumeration).
  explicit KaryTreeScheduler(const Graph& graph);

  // Full game: pebbles the tree and blue-pebbles the root sink.
  // `cancel`, when given, is polled inside the DP recursion; an expired
  // token makes Run return a timed_out result (CostOnly: kInfiniteCost)
  // without polluting the memo with partial entries.
  ScheduleResult Run(Weight budget, const CancelToken* cancel = nullptr);
  Weight CostOnly(Weight budget, const CancelToken* cancel = nullptr);

  // Definition 2.6 search over multiples of `step`, exploiting monotonicity.
  Weight MinMemoryForLowerBound(Weight step, Weight hi);

  NodeId root() const noexcept { return root_; }

 private:
  struct Entry {
    Weight cost = kInfiniteCost;
    // Chosen parent visit order (indices into parents(v)), low nibble first,
    // and keep/spill mask delta (bit i set = parent sigma(i) kept red).
    std::uint32_t perm = 0;
    std::uint32_t delta = 0;
  };

  Entry P(NodeId v, Weight b);
  void Generate(NodeId v, Weight b, Schedule& out) const;

  const Graph& graph_;
  CancelPoller cancel_;  // active only during Run/CostOnly
  NodeId root_ = kInvalidNode;
  std::vector<std::unordered_map<Weight, Entry>> memo_;
};

}  // namespace wrbpg
