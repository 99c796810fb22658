// Optimum WRBPG scheduler for DWT(n, d) graphs — Algorithm 1 / Theorem 3.5.
//
// Dynamic program P(v, b) over (average node, remaining budget) implementing
// the four representative strategies of Eq. (4) — {blue p1, red p2},
// {red p1, red p2} and their mirror images — with memoization. Schedule
// construction follows Algorithm 1: each pruned coefficient sibling u is
// computed and stored (M3, M2, M4) right before its average v (Lemma 3.2),
// and each final average receives its blue pebble at the top level.
//
// The returned schedules are provably minimum-weight (Lemma 3.4) whenever
// the Lemma 3.2 precondition holds: coefficient weights do not exceed the
// sibling average weights (true for both evaluation configurations, where
// all non-input nodes share one weight). The constructor verifies it.
#pragma once

#include <unordered_map>
#include <vector>

#include "dataflows/dwt_graph.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

class DwtOptimalScheduler {
 public:
  explicit DwtOptimalScheduler(const DwtGraph& dwt);

  // `cancel`, when given, is polled inside the DP recursion; an expired
  // token makes Run return a timed_out result (CostOnly: kInfiniteCost)
  // without polluting the memo with partial entries.
  ScheduleResult Run(Weight budget, const CancelToken* cancel = nullptr);
  Weight CostOnly(Weight budget, const CancelToken* cancel = nullptr);

  // Smallest budget at which CostOnly equals the algorithmic lower bound
  // (Definition 2.6), found by binary search on the monotone DP. Searches
  // multiples of `step` bits; returns 0 if unreachable below `hi`.
  Weight MinMemoryForLowerBound(Weight step, Weight hi);

 private:
  enum class Strategy : std::uint8_t {
    kLeaf,      // source: single M1
    kKeepKeep1, // (4): red p1, red p2  — p1 first, kept red
    kKeepKeep2, // (8): red p2, red p1  — p2 first, kept red
    kSpill1,    // (3): blue p1, red p2 — p1 first, spilled and reloaded
    kSpill2,    // (7): blue p2, red p1 — p2 first, spilled and reloaded
  };
  struct Entry {
    Weight cost = kInfiniteCost;
    Strategy strategy = Strategy::kLeaf;
  };

  // Minimum cost of computing v (ending red) under budget b — Eq. (2).
  Entry P(NodeId v, Weight b);
  // Emits the move sequence realizing P(v, b); requires P(v, b) finite.
  void Generate(NodeId v, Weight b, Schedule& out) const;

  const DwtGraph& dwt_;
  CancelPoller cancel_;  // active only during Run/CostOnly
  std::vector<NodeId> sibling_;  // average -> its coefficient sibling
  std::vector<NodeId> roots_;    // final averages, the pruned trees' sinks
  Weight coefficient_weight_total_ = 0;  // sum over all coefficient nodes
  std::vector<std::unordered_map<Weight, Entry>> memo_;
};

}  // namespace wrbpg
