#include "core/state_bound.h"

#include <bit>
#include <cassert>

namespace wrbpg {

StateBound::StateBound(const Graph& graph, Weight budget,
                       std::uint64_t required_red, bool require_sinks_blue,
                       bool build_wide)
    : graph_(graph),
      budget_(budget),
      require_sinks_blue_(require_sinks_blue) {
  const NodeId n = graph.num_nodes();
  words_ = (static_cast<std::size_t>(n) + 63) / 64;
  if (words_ == 0) words_ = 1;
  compute_footprint_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    Weight footprint = graph.weight(v);
    for (NodeId p : graph.parents(v)) footprint += graph.weight(p);
    compute_footprint_[v] = footprint;
  }
  required_red32_ = static_cast<std::uint32_t>(required_red);

  if (n <= 32) {
    for (NodeId v = 0; v < n; ++v) {
      if (graph.is_source(v)) sources_mask_ |= 1u << v;
      if (graph.is_sink(v)) sinks_mask_ |= 1u << v;
      for (NodeId p : graph.parents(v)) {
        parents_mask_[v] |= 1u << p;
        children_mask_[p] |= 1u << v;
      }
    }
  }
  // The packed masks cannot represent graphs above 32 nodes, so those
  // always build the word-span machinery; at or below 32 nodes it is
  // opt-in (the packed search path passes build_wide = false and carries
  // no wide buffers at all).
  if (build_wide || n > 32) {
    wide_masks_.emplace(graph);
    wide_required_red_.assign(words_, 0);
    for (NodeId v = 0; v < 64 && v < n; ++v) {
      if ((required_red >> v) & 1) {
        wide_required_red_[v / 64] |= 1ull << (v % 64);
      }
    }
  }
}

void StateBound::Prepare(std::uint32_t red, std::uint32_t blue,
                         PackedCtx& ctx) const {
  assert(graph_.num_nodes() <= 32);
  ctx.red = red;
  ctx.blue = blue;
  ctx.need = 0;
  ctx.store = 0;
  ctx.load = 0;
  ctx.dead = false;

  // Store term: sinks still owed their M2.
  const std::uint32_t unstored =
      require_sinks_blue_ ? (sinks_mask_ & ~blue) : 0u;
  for (std::uint32_t m = unstored; m != 0; m &= m - 1) {
    ctx.store += graph_.weight(static_cast<NodeId>(std::countr_zero(m)));
  }

  // Need closure: nodes that must become red in every completion. Targets
  // are the unmet red goals plus the un-red sinks still owed a store (a
  // store needs its red pebble first). The closure grows upward through
  // nodes that are neither red nor blue — those can only enter fast
  // memory via M3, which requires every parent red in turn. Blue non-red
  // nodes stop the walk (they may be re-loaded instead of recomputed, and
  // charging them here would not be additive), but a blue *source* in the
  // need set still pays its load: sources cannot be computed at all.
  std::uint32_t need = (required_red32_ | unstored) & ~red;
  std::uint32_t frontier = need & ~blue;
  while (frontier != 0) {
    std::uint32_t next = 0;
    for (std::uint32_t m = frontier; m != 0; m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      // A needed node with no pebble of either color must be computed.
      // Sources cannot be; and a compute whose Prop 2.3 footprint exceeds
      // the budget can never fire — either way no completion exists.
      if ((sources_mask_ & (1u << v)) != 0 || compute_footprint_[v] > budget_) {
        ctx.dead = true;
        return;
      }
      next |= parents_mask_[v];
    }
    next &= ~red & ~need;
    need |= next;
    frontier = next & ~blue;
  }
  ctx.need = need;

  // Load term: needed sources (all !red by construction; all blue, since a
  // needed blue-less source already went dead above).
  for (std::uint32_t m = need & sources_mask_; m != 0; m &= m - 1) {
    ctx.load += graph_.weight(static_cast<NodeId>(std::countr_zero(m)));
  }
}

Weight StateBound::Evaluate(std::uint32_t red, std::uint32_t blue) const {
  PackedCtx ctx;
  Prepare(red, blue, ctx);
  return ctx.dead ? kInfiniteCost : ctx.store + ctx.load;
}

bool StateBound::EvalMoveFast(const PackedCtx& ctx, MoveType type, NodeId v,
                              Weight* h) const {
  if (ctx.dead) {
    *h = kInfiniteCost;
    return true;
  }
  const std::uint32_t bit = 1u << v;
  switch (type) {
    case MoveType::kLoad: {
      // v was blue, so the walk never propagated through it: red-ing v
      // removes exactly v from the need set.
      Weight load = ctx.load;
      if ((ctx.need & bit) != 0 && (sources_mask_ & bit) != 0) {
        load -= graph_.weight(v);
      }
      *h = ctx.store + load;
      return true;
    }
    case MoveType::kStore: {
      // v is red, so the closure lives entirely outside v: only the
      // store term can move, and it discharges iff v is an unstored sink.
      Weight store = ctx.store;
      if (require_sinks_blue_ && (sinks_mask_ & bit) != 0 &&
          (ctx.blue & bit) == 0) {
        store -= graph_.weight(v);
      }
      *h = store + ctx.load;
      return true;
    }
    case MoveType::kCompute:
      // h is INVARIANT under every legal M3. Legality makes every parent
      // of v red, so no closure chain ever propagated THROUGH v — the
      // walk masks propagation with ~red, and everything v could emit is
      // red. Red-ing v therefore removes exactly {v} from the need set
      // (and from the targets, if it was one), and v is a non-source, so
      // neither the store nor the load term moves.
      *h = ctx.store + ctx.load;
      return true;
    case MoveType::kDelete: {
      // v re-enters the closure only as a target (required-red or
      // unstored sink) or as a parent of a needed un-pebbled node; the
      // walks are otherwise identical, so "no re-entry" ⇒ need invariant.
      const std::uint32_t unstored =
          require_sinks_blue_ ? (sinks_mask_ & ~ctx.blue) : 0u;
      if (((required_red32_ | unstored) & bit) == 0 &&
          (children_mask_[v] & ctx.need & ~ctx.blue) == 0) {
        *h = ctx.store + ctx.load;
        return true;
      }
      return false;
    }
  }
  return false;
}

Weight StateBound::EvalMoveSlow(const PackedCtx& ctx,
                                [[maybe_unused]] MoveType type,
                                NodeId v) const {
  assert(type == MoveType::kDelete);
  const std::uint32_t bit = 1u << v;
  // Incremental extension: every member of need(after) \ need(before) has
  // a derivation chain through v, so re-seed the walk at v alone and grow
  // the parent's closure in place. The successor's red differs from the
  // parent's only at v, and v is already in `need`, so masking candidate
  // words with the PARENT's red is exact.
  std::uint32_t need = ctx.need | bit;
  Weight load = ctx.load;
  std::uint32_t frontier = 0;
  if ((ctx.blue & bit) != 0) {
    // A blue member joins the need set without propagating; a source
    // among them still owes its load.
    if ((sources_mask_ & bit) != 0) load += graph_.weight(v);
  } else {
    frontier = bit;
  }
  while (frontier != 0) {
    std::uint32_t next = 0;
    for (std::uint32_t m = frontier; m != 0; m &= m - 1) {
      const NodeId u = static_cast<NodeId>(std::countr_zero(m));
      if ((sources_mask_ & (1u << u)) != 0 || compute_footprint_[u] > budget_) {
        return kInfiniteCost;
      }
      next |= parents_mask_[u];
    }
    next &= ~ctx.red & ~need;
    need |= next;
    for (std::uint32_t m = next & sources_mask_; m != 0; m &= m - 1) {
      const NodeId u = static_cast<NodeId>(std::countr_zero(m));
      if ((ctx.blue & (1u << u)) == 0) return kInfiniteCost;
      load += graph_.weight(u);
    }
    frontier = next & ~ctx.blue;
  }
  return ctx.store + load;
}

// ---- Word-span twins: identical closure, mask ops spelled per 64-bit
// word, adjacency read from the graph's CSR rows. Differentially tested
// against the packed path over random (red, blue) pairs in
// tests/state_bound_test.cc. ----

Weight StateBound::Evaluate(const std::uint64_t* red,
                            const std::uint64_t* blue,
                            WideScratch& scratch) const {
  scratch.need.assign(words_, 0);
  Weight store = 0;
  Weight load = 0;
  if (!WideWalk(red, blue, scratch.need.data(), scratch, &store, &load)) {
    return kInfiniteCost;
  }
  return store + load;
}

void StateBound::Prepare(const std::uint64_t* red, const std::uint64_t* blue,
                         WideCtx& ctx, WideScratch& scratch) const {
  ctx.need.assign(words_, 0);
  ctx.store = 0;
  ctx.load = 0;
  ctx.dead = !WideWalk(red, blue, ctx.need.data(), scratch, &ctx.store,
                       &ctx.load);
}

bool StateBound::WideWalk(const std::uint64_t* red, const std::uint64_t* blue,
                          std::uint64_t* need, WideScratch& scratch,
                          Weight* store, Weight* load) const {
  assert(wide_masks_.has_value());
  const std::size_t W = words_;
  const GraphMasks& masks = *wide_masks_;
  scratch.frontier.assign(W, 0);
  scratch.next.assign(W, 0);
  std::uint64_t* frontier = scratch.frontier.data();
  std::uint64_t* next = scratch.next.data();

  for (std::size_t w = 0; w < W; ++w) {
    const std::uint64_t unstored =
        require_sinks_blue_ ? (masks.sinks()[w] & ~blue[w]) : 0ull;
    for (std::uint64_t m = unstored; m != 0; m &= m - 1) {
      *store += graph_.weight(static_cast<NodeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(m))));
    }
    need[w] = (wide_required_red_[w] | unstored) & ~red[w];
    frontier[w] = need[w] & ~blue[w];
  }

  bool dead = false;
  while (GraphMasks::AnySet(frontier, W)) {
    for (std::size_t w = 0; w < W; ++w) next[w] = 0;
    GraphMasks::ForEachSetBit(frontier, W, [&](NodeId v) {
      if (dead) return;
      if (masks.is_source(v) || compute_footprint_[v] > budget_) {
        dead = true;
        return;
      }
      for (const NodeId p : graph_.parents(v)) GraphMasks::Set(next, p);
    });
    if (dead) return false;
    for (std::size_t w = 0; w < W; ++w) {
      next[w] &= ~red[w] & ~need[w];
      need[w] |= next[w];
      frontier[w] = next[w] & ~blue[w];
    }
  }

  for (std::size_t w = 0; w < W; ++w) {
    for (std::uint64_t m = need[w] & masks.sources()[w]; m != 0; m &= m - 1) {
      *load += graph_.weight(static_cast<NodeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(m))));
    }
  }
  return true;
}

bool StateBound::EvalMoveFast(const WideCtx& ctx,
                              const std::uint64_t* /*red*/,
                              const std::uint64_t* blue, MoveType type,
                              NodeId v, Weight* h) const {
  if (ctx.dead) {
    *h = kInfiniteCost;
    return true;
  }
  const GraphMasks& masks = *wide_masks_;
  const std::size_t wd = v / 64;
  const std::uint64_t bit = 1ull << (v % 64);
  switch (type) {
    case MoveType::kLoad: {
      Weight load = ctx.load;
      if ((ctx.need[wd] & bit) != 0 && (masks.sources()[wd] & bit) != 0) {
        load -= graph_.weight(v);
      }
      *h = ctx.store + load;
      return true;
    }
    case MoveType::kStore: {
      Weight store = ctx.store;
      if (require_sinks_blue_ && (masks.sinks()[wd] & bit) != 0 &&
          (blue[wd] & bit) == 0) {
        store -= graph_.weight(v);
      }
      *h = store + ctx.load;
      return true;
    }
    case MoveType::kCompute:
      // Invariant for every legal M3 — see the packed twin above: all of
      // v's parents are red, so nothing was ever derived through v and
      // the closure loses exactly {v}, a non-source.
      *h = ctx.store + ctx.load;
      return true;
    case MoveType::kDelete: {
      const std::uint64_t unstored =
          require_sinks_blue_ ? (masks.sinks()[wd] & ~blue[wd]) : 0ull;
      if (((wide_required_red_[wd] | unstored) & bit) != 0) return false;
      for (const NodeId c : graph_.children(v)) {
        if (GraphMasks::Test(ctx.need.data(), c) &&
            !GraphMasks::Test(blue, c)) {
          return false;
        }
      }
      *h = ctx.store + ctx.load;
      return true;
    }
  }
  return false;
}

Weight StateBound::EvalMoveSlow(const WideCtx& ctx, const std::uint64_t* red,
                                const std::uint64_t* blue,
                                [[maybe_unused]] MoveType type, NodeId v,
                                WideScratch& scratch) const {
  assert(type == MoveType::kDelete);
  const std::size_t W = words_;
  const GraphMasks& masks = *wide_masks_;
  const std::size_t wd = v / 64;
  const std::uint64_t bit = 1ull << (v % 64);
  // Seeded extension of the parent closure — the word-span twin of the
  // packed EvalMoveSlow above; see there for why the parent's red mask
  // stays exact.
  scratch.need.assign(ctx.need.begin(), ctx.need.end());
  std::uint64_t* need = scratch.need.data();
  need[wd] |= bit;
  Weight load = ctx.load;
  scratch.frontier.assign(W, 0);
  scratch.next.assign(W, 0);
  std::uint64_t* frontier = scratch.frontier.data();
  std::uint64_t* next = scratch.next.data();
  if ((blue[wd] & bit) != 0) {
    if ((masks.sources()[wd] & bit) != 0) load += graph_.weight(v);
  } else {
    frontier[wd] = bit;
  }
  while (GraphMasks::AnySet(frontier, W)) {
    for (std::size_t w = 0; w < W; ++w) next[w] = 0;
    bool dead = false;
    GraphMasks::ForEachSetBit(frontier, W, [&](NodeId u) {
      if (dead) return;
      if (masks.is_source(u) || compute_footprint_[u] > budget_) {
        dead = true;
        return;
      }
      for (const NodeId p : graph_.parents(u)) GraphMasks::Set(next, p);
    });
    if (dead) return kInfiniteCost;
    for (std::size_t w = 0; w < W; ++w) {
      next[w] &= ~red[w] & ~need[w];
      need[w] |= next[w];
    }
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t m = next[w] & masks.sources()[w]; m != 0;
           m &= m - 1) {
        const NodeId u = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        if (!GraphMasks::Test(blue, u)) return kInfiniteCost;
        load += graph_.weight(u);
      }
      frontier[w] = next[w] & ~blue[w];
    }
  }
  return ctx.store + load;
}

Weight StateBound::StartBound() const {
  if (graph_.num_nodes() <= 32) return Evaluate(0, sources_mask_);
  WideScratch scratch;
  return StartBound(scratch);
}

Weight StateBound::StartBound(WideScratch& scratch) const {
  if (graph_.num_nodes() <= 32) return Evaluate(0, sources_mask_);
  scratch.tmp.assign(words_, 0);
  return Evaluate(scratch.tmp.data(), wide_masks_->sources(), scratch);
}

}  // namespace wrbpg
