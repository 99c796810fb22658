// Admissible per-state lower bounds on remaining weighted I/O — the A*
// heuristic of the exact search engine (DESIGN.md §9/§11/§14).
//
// For a pebbling configuration (red, blue) and a goal (all sinks blue
// and/or a required final red set), h(red, blue) lower-bounds the
// weighted cost every valid completion must still pay:
//
//   store term  — every sink not yet blue needs one M2, costing w_v
//                 (blue pebbles are never removed, so the store is still
//                 owed no matter what else happens);
//   load term   — every source in the *need closure* that is not red must
//                 be (re-)loaded at least once: the closure walks upward
//                 from must-become-red targets through nodes that are
//                 neither red nor blue (such nodes can only be computed,
//                 which forces their parents red in turn). Sources cannot
//                 be computed, so a closure source pays its M1.
//
// At the start state (no red, sources blue) the two terms are exactly
// Proposition 2.4's algorithmic lower bound — h generalizes it to every
// intermediate state, which is what makes it an A* heuristic rather than
// a one-shot estimate. The closure also detects dead states: a needed
// source with no blue pebble can never be loaded, and a needed compute
// whose own Prop 2.3 footprint (w_v + sum of parent weights) exceeds the
// budget can never fire — both return kInfiniteCost, turning the bound
// into a pruning oracle as well.
//
// Admissibility (h <= true remaining optimal cost) is pinned exhaustively
// in tests/state_bound_test.cc over every (red, blue) mask pair of small
// graphs. h is NOT consistent — a single store can discharge both its own
// store term and an upstream load term — so the searcher reopens states
// (see brute_force.cc); admissibility alone keeps the optimum exact.
//
// INCREMENTAL EVALUATION (DESIGN.md §14). A move toggles one bit of
// (red, blue), and for most moves the successor's h follows from the
// parent's by an O(1) (or O(words)) delta — the expensive closure walk is
// only ever re-run when the move can actually change the closure:
//
//   M2 store v   need is INVARIANT: v is red, and the closure lives in
//                ~red, so v is in neither need(s) nor need(c); targets
//                gain nothing (v is excluded by ~red either way). Only
//                the store term moves: -w_v iff v is a sink still owed
//                its M2. Exact, never re-walks.
//   M1 load v    v was blue, so the walk never propagated THROUGH v
//                (blue stops the frontier); red-ing v just removes it
//                from the need set: load -w_v iff v was a needed source.
//                Exact, never re-walks.
//   M3 compute v need loses EXACTLY {v}: legality makes every parent of
//                v red, and the walk masks propagation with ~red, so no
//                member's derivation chain ever passed through v. v is a
//                non-source, so neither term moves — h is invariant.
//                Exact, never re-walks.
//   M4 delete v  v can only re-enter the closure as a target
//                (required-red or unstored sink) or as a parent of a
//                needed un-pebbled node. If neither, need is invariant.
//                Otherwise the change is purely INCREMENTAL: every new
//                member's derivation chain passes through v, so re-seed
//                the walk at v alone and extend need(s) — exact, and far
//                cheaper than a full re-walk.
//
// Prepare() runs one full walk for the state being expanded and records
// (need, store, load); EvalMoveFast() applies the exact deltas above and
// reports whether the move needed the slow path, which only an M4 with
// re-entry does; EvalMoveSlow() is that path's seeded extension.
// EvaluateMove() composes the two and is pinned ≡ fresh Evaluate() in
// tests/state_bound_test.cc over all mask pairs of small graphs.
//
// Supports graphs of ANY size. Configurations of graphs with at most 32
// nodes use the packed uint32 mask fast path the exact engine's inline
// states are built on; wider graphs use the word-span overload, whose
// masks are arrays of 64-bit words (node v lives in word v/64, bit v%64)
// with WordsPerColor() words per color. Both paths read H(v) and the
// children of v from the graph's CSR rows, the adjacency the rules kernel
// (core/rules.h) and the search share, so construction costs O(n + E).
// The word-span Evaluate needs a caller-owned WideScratch so concurrent
// evaluations (parallel frontier expansion) never share closure buffers.
// Evaluate is allocation-free once the scratch is sized and iterates only
// over set bits of the masks involved and the CSR rows of their nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "core/graph_masks.h"
#include "core/move.h"
#include "core/types.h"

namespace wrbpg {

class StateBound {
 public:
  // `required_red` are nodes that must hold red pebbles at the end (a
  // bitmask over node ids; only ids < 64 are representable, which covers
  // every memory-state game the engines play); `require_sinks_blue` adds
  // the game's normal stopping condition.
  //
  // `build_wide` controls whether the word-span machinery is built: the
  // packed search path passes false so a ≤32-node StateBound carries no
  // wide buffers at all (graphs above 32 nodes always build them — the
  // packed masks cannot represent those).
  StateBound(const Graph& graph, Weight budget, std::uint64_t required_red,
             bool require_sinks_blue, bool build_wide = true);

  // Admissible lower bound on the remaining weighted I/O from (red, blue);
  // kInfiniteCost when no valid completion exists from this state. Packed
  // fast path, only valid when the graph has at most 32 nodes.
  Weight Evaluate(std::uint32_t red, std::uint32_t blue) const;

  // Reusable closure buffers for the word-span Evaluate. One per calling
  // thread; sized on first use and never shrunk. `tmp` holds
  // StartBound's empty red mask.
  struct WideScratch {
    std::vector<std::uint64_t> need;
    std::vector<std::uint64_t> frontier;
    std::vector<std::uint64_t> next;
    std::vector<std::uint64_t> tmp;
  };

  // Word-span Evaluate for graphs of any width: `red` and `blue` each
  // point at WordsPerColor() words. Requires build_wide.
  Weight Evaluate(const std::uint64_t* red, const std::uint64_t* blue,
                  WideScratch& scratch) const;

  // ---- Incremental evaluation (see the header comment's move table) ----

  // Expansion context for the packed path: the parent state's closure,
  // split into the exactly-maintained store term and the cached-closure
  // load term. Populated by Prepare(); read by EvalMove*().
  struct PackedCtx {
    std::uint32_t red = 0;
    std::uint32_t blue = 0;
    std::uint32_t need = 0;
    Weight store = 0;
    Weight load = 0;
    bool dead = false;
  };

  // Expansion context for the word-span path. `need` is sized by
  // Prepare(); red/blue are NOT copied — EvalMove*() take the parent
  // masks explicitly so callers can point at interner-owned words.
  struct WideCtx {
    std::vector<std::uint64_t> need;
    Weight store = 0;
    Weight load = 0;
    bool dead = false;
  };

  // One full closure walk for the state about to be expanded.
  void Prepare(std::uint32_t red, std::uint32_t blue, PackedCtx& ctx) const;
  void Prepare(const std::uint64_t* red, const std::uint64_t* blue,
               WideCtx& ctx, WideScratch& scratch) const;

  // Exact delta for the moves whose closure is provably unchanged (M1,
  // M2, every legal M3, M4 with no re-entry). Returns true and writes *h
  // on the fast path; returns false when the move needs EvalMoveSlow,
  // which only an M4 can. `move` must be legal in the ctx state.
  bool EvalMoveFast(const PackedCtx& ctx, MoveType type, NodeId v,
                    Weight* h) const;
  bool EvalMoveFast(const WideCtx& ctx, const std::uint64_t* red,
                    const std::uint64_t* blue, MoveType type, NodeId v,
                    Weight* h) const;

  // Slow path for an M4 that EvalMoveFast declined: seeded incremental
  // extension of the ctx closure (monotone growth through v). `type` must
  // be MoveType::kDelete.
  Weight EvalMoveSlow(const PackedCtx& ctx, MoveType type, NodeId v) const;
  Weight EvalMoveSlow(const WideCtx& ctx, const std::uint64_t* red,
                      const std::uint64_t* blue, MoveType type, NodeId v,
                      WideScratch& scratch) const;

  // Fast-else-slow composition; h of the successor of applying `move` to
  // the ctx state. Pinned ≡ fresh Evaluate of the successor in tests.
  Weight EvaluateMove(const PackedCtx& ctx, MoveType type, NodeId v) const {
    Weight h = 0;
    if (EvalMoveFast(ctx, type, v, &h)) return h;
    return EvalMoveSlow(ctx, type, v);
  }
  Weight EvaluateMove(const WideCtx& ctx, const std::uint64_t* red,
                      const std::uint64_t* blue, MoveType type, NodeId v,
                      WideScratch& scratch) const {
    Weight h = 0;
    if (EvalMoveFast(ctx, red, blue, type, v, &h)) return h;
    return EvalMoveSlow(ctx, red, blue, type, v, scratch);
  }

  // Evaluate at the canonical start state (no red, sources blue): the
  // budget-aware generalization of AlgorithmicLowerBound. Used by the
  // analysis layer to tighten budget-scan bands and as the anytime
  // engine's day-zero lower bound. The scratch overload reuses a
  // caller-owned buffer on the wide path; no library caller needs it,
  // but the repository benchmark (perfbench) times the call through it.
  Weight StartBound() const;
  Weight StartBound(WideScratch& scratch) const;

  // Words per color mask for the word-span overload: ceil(n / 64).
  std::size_t WordsPerColor() const { return words_; }

 private:
  // Shared word-span closure walk: fills `need` (words_ words, caller
  // zeroed), accumulates the two terms, and returns false on a dead
  // state. Both the wide Evaluate and the wide Prepare funnel through
  // this so the full and incremental paths cannot drift.
  bool WideWalk(const std::uint64_t* red, const std::uint64_t* blue,
                std::uint64_t* need, WideScratch& scratch, Weight* store,
                Weight* load) const;

  const Graph& graph_;
  Weight budget_;
  bool require_sinks_blue_;
  std::size_t words_ = 1;

  // Packed masks (graphs of <= 32 nodes; undefined above).
  std::uint32_t required_red32_ = 0;
  std::uint32_t sources_mask_ = 0;
  std::uint32_t sinks_mask_ = 0;
  // parents_mask_[v] / children_mask_[v]: bitmasks of H(v) and of the
  // out-neighborhood (children gate the M4 delta test).
  std::uint32_t parents_mask_[32] = {};
  std::uint32_t children_mask_[32] = {};

  // Word-span source/sink masks and required-red words (built only when
  // build_wide, or unconditionally above 32 nodes).
  std::vector<std::uint64_t> wide_required_red_;
  std::optional<GraphMasks> wide_masks_;

  // Prop 2.3 footprint w_v + sum_{p in H(v)} w_p of each compute.
  std::vector<Weight> compute_footprint_;
};

}  // namespace wrbpg
