#include "schedulers/brute_force.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/graph_masks.h"
#include "core/simulator.h"
#include "core/state_bound.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "schedulers/belady.h"
#include "schedulers/greedy_topo.h"
#include "schedulers/search_frontier.h"
#include "util/thread_pool.h"

namespace wrbpg {
namespace {

using State = SearchState;  // packed config (n <= 32) or interned id

constexpr std::uint32_t RedOf(State s) {
  return static_cast<std::uint32_t>(s & 0xffffffffu);
}
constexpr std::uint32_t BlueOf(State s) {
  return static_cast<std::uint32_t>(s >> 32);
}
constexpr State MakeState(std::uint32_t red, std::uint32_t blue) {
  return static_cast<State>(red) | (static_cast<State>(blue) << 32);
}

// Wave key (search_frontier.h): f, then g, then schedule length.
using Key = WaveKey;

// Search outcomes. Everything past kInfeasible is an abort: the search
// stopped early and recorded a sound lower bound on the optimum (the
// minimum f over the still-open frontier) for the anytime result.
enum class SearchStatus : std::uint8_t {
  kFound,
  kInfeasible,
  kDeadline,   // CancelToken with a wall-clock deadline fired
  kCancelled,  // manual CancelToken::Cancel(), no deadline involved
  kStateCap,   // BruteForceOptions::max_states exhausted
  kMemoryCap,  // frontier_bytes_cap (or the interner) exhausted
};

constexpr bool IsAbort(SearchStatus s) {
  return s != SearchStatus::kFound && s != SearchStatus::kInfeasible;
}

Termination ToTermination(SearchStatus s) {
  switch (s) {
    case SearchStatus::kDeadline: return Termination::kDeadline;
    case SearchStatus::kCancelled: return Termination::kCancelled;
    case SearchStatus::kStateCap:
    case SearchStatus::kMemoryCap: return Termination::kMemoryCap;
    case SearchStatus::kFound:
    case SearchStatus::kInfeasible: break;
  }
  return Termination::kComplete;
}

// Deadline poll cadence inside expansion chunks, in generated moves. A
// wave over a wide graph can hold millions of states, so polling only at
// wave boundaries would blow deadlines by seconds; counting moves (a
// state generates up to 4n of them) keeps the overshoot at microseconds
// while touching the clock rarely enough not to show in profiles.
constexpr std::uint32_t kCancelPollMoves = 2048;

// ---------------------------------------------------------------------------
// State-representation policies. The Searcher below is templated over one
// of these; they own the game masks and answer every question the search
// asks about a configuration. PackedOps is the n <= 32 fast path where
// the SearchState IS the configuration (red | blue << 32) — bit-compatible
// with the PR 3-5 engines. WideOps stores configurations as word arrays
// in a StateInterner and hands the search stable ids, which is what lifts
// the engines past the 32-node wall.
//
// The policy vocabulary: a Candidate is a successor/predecessor
// configuration that may not have an id yet. The search evaluates the
// heuristic and its pruning rules on the Candidate and only then
// Commit()s it (packed: identity; wide: intern) — so pruned states never
// cost interner memory. FindExisting() is Commit's read-only twin for the
// reconstruction walk, which must not invent states.
// ---------------------------------------------------------------------------

class PackedOps {
 public:
  using Candidate = State;
  struct Scratch {
    StateBound::PackedCtx ctx;  // the expanded state's closure (§14)
  };

  PackedOps(const Graph& graph, Weight budget,
            const BruteForceOptions& options)
      : graph_(graph),
        budget_(budget),
        require_sinks_blue_(options.require_sinks_blue) {
    const NodeId n = graph.num_nodes();
    parents_mask_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      node_mask_ |= 1u << v;
      if (graph.is_source(v)) sources_mask_ |= 1u << v;
      if (graph.is_sink(v)) sinks_mask_ |= 1u << v;
      for (const NodeId p : graph.parents(v)) parents_mask_[v] |= 1u << p;
    }
    initial_red_ = static_cast<std::uint32_t>(options.initial_red);
    initial_blue_ = static_cast<std::uint32_t>(
        options.initial_blue.value_or(sources_mask_));
    required_red_ = static_cast<std::uint32_t>(options.required_red_at_end);
    if (options.engine != SearchEngine::kDijkstra) {
      bound_.emplace(graph, budget, options.required_red_at_end,
                     options.require_sinks_blue, /*build_wide=*/false);
    }
  }

  State Start() { return MakeState(initial_red_, initial_blue_); }
  Weight InitialRedWeight() const { return RedWeight(initial_red_); }

  bool IsGoal(State s) const {
    if ((RedOf(s) & required_red_) != required_red_) return false;
    if (require_sinks_blue_ && (BlueOf(s) & sinks_mask_) != sinks_mask_) {
      return false;
    }
    return true;
  }
  bool IsGoalCandidate(const Candidate& c) const { return IsGoal(c); }

  Weight HeuristicState(State s, Scratch&) const {
    return bound_->Evaluate(RedOf(s), BlueOf(s));
  }

  // One closure walk for the state about to be expanded; HeuristicMove
  // below prices every successor off this context.
  void PrepareExpand(State s, Scratch& scratch) const {
    bound_->Prepare(RedOf(s), BlueOf(s), scratch.ctx);
  }

  // h of the successor `c` reached from the prepared state via `move`:
  // exact incremental delta when the move provably leaves the closure
  // alone, else a fresh masked walk. The packed path deliberately does
  // NOT consult the sharded bound cache: a ≤32-node closure walk runs in
  // tens of nanoseconds, cheaper than the lock+probe a shared table
  // charges (measured ~1.4x slower end-to-end with the cache on the
  // engine-compare dwt rows). The cache earns its keep on the wide path,
  // where a slow evaluation also pays interning and per-word walks.
  Weight HeuristicMove(const Candidate& c, Move move, Scratch& scratch,
                       SearchStats& stats) {
    Weight h = 0;
    if (bound_->EvalMoveFast(scratch.ctx, move.type, move.node, &h)) return h;
    (void)c;
    ++stats.bound_cache_misses;  // priced by a fresh walk (no packed cache)
    return bound_->EvalMoveSlow(scratch.ctx, move.type, move.node);
  }

  bool Commit(const Candidate& c, Scratch&, SearchStats&, State* id) {
    *id = c;
    return true;
  }
  bool FindExisting(const Candidate& c, State* id) const {
    *id = c;
    return true;
  }

  // Calls fn(candidate, move_cost, move) for every legal move out of `s`,
  // in canonical move order (M1 < M2 < M3 < M4, node ascending); fn
  // returns true to stop early. The reconstruction walk takes the first
  // tight on-path edge this enumeration offers, which is what makes the
  // returned sequence the lexicographically-least one. Each move class
  // iterates only the set bits of its legality mask (ctz ascends node
  // ids, preserving the canonical order).
  template <typename Fn>
  void ForEachSuccessor(State s, Scratch&, Fn&& fn) const {
    const std::uint32_t red = RedOf(s);
    const std::uint32_t blue = BlueOf(s);
    const Weight rw = RedWeight(red);
    for (std::uint32_t m = blue & ~red; m != 0; m &= m - 1) {  // M1
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      const Weight w = graph_.weight(v);
      if (rw + w <= budget_ &&
          fn(MakeState(red | (1u << v), blue), w, Load(v))) {
        return;
      }
    }
    for (std::uint32_t m = red & ~blue; m != 0; m &= m - 1) {  // M2
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      if (fn(MakeState(red, blue | (1u << v)), graph_.weight(v), Store(v))) {
        return;
      }
    }
    // M3: un-red non-sources whose parents are all red, within budget.
    for (std::uint32_t m = node_mask_ & ~red & ~sources_mask_; m != 0;
         m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      if ((red & parents_mask_[v]) == parents_mask_[v] &&
          rw + graph_.weight(v) <= budget_ &&
          fn(MakeState(red | (1u << v), blue), 0, Compute(v))) {
        return;
      }
    }
    for (std::uint32_t m = red; m != 0; m &= m - 1) {  // M4
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      if (fn(MakeState(red & ~(1u << v), blue), 0, Delete(v))) {
        return;
      }
    }
  }

  // Calls fn(candidate, move_cost) for every configuration one legal move
  // BEFORE `s` (the reconstruction walk's backward edges). Enumeration
  // order is irrelevant here — the walk only marks.
  template <typename Fn>
  void ForEachPredecessor(State s, Scratch&, Fn&& fn) const {
    const std::uint32_t red = RedOf(s);
    const std::uint32_t blue = BlueOf(s);
    // Undo M1: predecessor lacked red v, blue v present throughout.
    for (std::uint32_t m = red & blue; m != 0; m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      fn(MakeState(red & ~(1u << v), blue), graph_.weight(v));
    }
    // Undo M3: predecessor lacked red v and held all parents red.
    for (std::uint32_t m = red & ~sources_mask_; m != 0; m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      const std::uint32_t bit = 1u << v;
      if (((red & ~bit) & parents_mask_[v]) == parents_mask_[v]) {
        fn(MakeState(red & ~bit, blue), 0);
      }
    }
    // Undo M2: predecessor lacked blue v, red v present throughout.
    for (std::uint32_t m = red & blue; m != 0; m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      fn(MakeState(red, blue & ~(1u << v)), graph_.weight(v));
    }
    // Undo M4: predecessor held red v.
    for (std::uint32_t m = node_mask_ & ~red; m != 0; m &= m - 1) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(m));
      fn(MakeState(red | (1u << v), blue), 0);
    }
  }

  // States live inline in the dist map and the per-worker bound-cache
  // slices are fixed 64 KiB arrays — nothing here scales with the search.
  std::size_t MemoryBytes() const { return 0; }

 private:
  Weight RedWeight(std::uint32_t red) const {
    Weight w = 0;
    while (red != 0) {
      const int v = std::countr_zero(red);
      w += graph_.weight(static_cast<NodeId>(v));
      red &= red - 1;
    }
    return w;
  }

  const Graph& graph_;
  const Weight budget_;
  bool require_sinks_blue_;
  std::uint32_t sources_mask_ = 0;
  std::uint32_t sinks_mask_ = 0;
  std::uint32_t node_mask_ = 0;
  std::vector<std::uint32_t> parents_mask_;
  std::uint32_t initial_red_ = 0;
  std::uint32_t initial_blue_ = 0;
  std::uint32_t required_red_ = 0;
  std::optional<StateBound> bound_;
};

// Word-array states for graphs past the packed fast path. A configuration
// is 2*W words (red words, then blue words, W = ceil(n/64)); successors
// are built by toggling one bit in a per-worker scratch buffer, evaluated
// in place, and interned only if the search keeps them. The initial
// red/blue/required-red option masks are uint64, so custom pebble
// placements address nodes 0..63; the defaults (no red, sources blue,
// sinks-blue goal) are width-independent.
class WideOps {
 public:
  struct Candidate {
    const std::uint64_t* config;  // 2*W words: red, then blue
  };
  struct Scratch {
    std::vector<std::uint64_t> config;
    StateBound::WideScratch bound;
    StateBound::WideCtx ctx;  // the expanded state's closure (§14)
    const std::uint64_t* base = nullptr;  // interner words of that state
    StateInterner::LocalCache intern_cache;
  };

  WideOps(const Graph& graph, Weight budget, const BruteForceOptions& options)
      : graph_(graph),
        budget_(budget),
        require_sinks_blue_(options.require_sinks_blue),
        words_(WordsFor(graph.num_nodes())),
        masks_(graph),
        interner_(2 * WordsFor(graph.num_nodes())) {
    const NodeId n = graph.num_nodes();
    required_red_.assign(words_, 0);
    initial_red_.assign(words_, 0);
    initial_blue_.assign(words_, 0);
    for (NodeId v = 0; v < 64 && v < n; ++v) {
      if ((options.initial_red >> v) & 1) {
        GraphMasks::Set(initial_red_.data(), v);
      }
      if ((options.required_red_at_end >> v) & 1) {
        GraphMasks::Set(required_red_.data(), v);
      }
    }
    if (options.initial_blue.has_value()) {
      for (NodeId v = 0; v < 64 && v < n; ++v) {
        if ((*options.initial_blue >> v) & 1) {
          GraphMasks::Set(initial_blue_.data(), v);
        }
      }
    } else {
      initial_blue_.assign(masks_.sources(), masks_.sources() + words_);
    }
    if (options.engine != SearchEngine::kDijkstra) {
      bound_.emplace(graph, budget, options.required_red_at_end,
                     options.require_sinks_blue);
    }
  }

  State Start() {
    std::vector<std::uint64_t> config(2 * words_);
    std::copy(initial_red_.begin(), initial_red_.end(), config.begin());
    std::copy(initial_blue_.begin(), initial_blue_.end(),
              config.begin() + static_cast<std::ptrdiff_t>(words_));
    State id = 0;
    const bool ok = interner_.Intern(config.data(), &id);
    assert(ok);
    (void)ok;
    return id;
  }
  Weight InitialRedWeight() const { return RedWeight(initial_red_.data()); }

  bool IsGoal(State s) const { return IsGoalWords(interner_.Words(s)); }
  bool IsGoalCandidate(const Candidate& c) const {
    return IsGoalWords(c.config);
  }

  Weight HeuristicState(State s, Scratch& scratch) const {
    const std::uint64_t* w = interner_.Words(s);
    return bound_->Evaluate(w, w + words_, scratch.bound);
  }

  // One closure walk for the state about to be expanded. The interner
  // words are stable, so `base` stays valid for the whole expansion.
  void PrepareExpand(State s, Scratch& scratch) const {
    scratch.base = interner_.Words(s);
    bound_->Prepare(scratch.base, scratch.base + words_, scratch.ctx,
                    scratch.bound);
  }

  // h of the successor `c` via `move`, off the prepared context. Slow
  // paths intern the candidate first so the bound cache can key on the
  // stable id (Commit below re-finds it for free through the same local
  // cache); if the interner is exhausted, price the candidate uncached —
  // the subsequent Commit of any surviving candidate reports the memory
  // cap through the existing abort path.
  Weight HeuristicMove(const Candidate& c, Move move, Scratch& scratch,
                       SearchStats& stats) {
    Weight h = 0;
    if (bound_->EvalMoveFast(scratch.ctx, scratch.base, scratch.base + words_,
                             move.type, move.node, &h)) {
      return h;
    }
    State id = 0;
    if (!interner_.InternCached(c.config, scratch.intern_cache, &id,
                                &stats.intern_cache_hits,
                                &stats.intern_cache_misses)) {
      return bound_->EvalMoveSlow(scratch.ctx, scratch.base,
                                  scratch.base + words_, move.type, move.node,
                                  scratch.bound);
    }
    if (bound_cache_.Find(id, &h)) {
      ++stats.bound_cache_hits;
      return h;
    }
    ++stats.bound_cache_misses;
    h = bound_->EvalMoveSlow(scratch.ctx, scratch.base, scratch.base + words_,
                             move.type, move.node, scratch.bound);
    bound_cache_.Insert(id, h);
    return h;
  }

  bool Commit(const Candidate& c, Scratch& scratch, SearchStats& stats,
              State* id) {
    return interner_.InternCached(c.config, scratch.intern_cache, id,
                                  &stats.intern_cache_hits,
                                  &stats.intern_cache_misses);
  }
  bool FindExisting(const Candidate& c, State* id) const {
    return interner_.Find(c.config, id);
  }

  // Successor enumeration, bit-toggled in scratch around each callback so
  // one 2*W-word copy per state (not per move) suffices. Candidate
  // pointers are only valid for the duration of the callback. Move order
  // matches PackedOps exactly — the lex-least reconstruction and the
  // packed/wide bit-identity both hang on it. Each move class walks the
  // set bits of its word-parallel legality mask; the per-word candidate
  // mask is snapshotted before the word's bits toggle, so the in-place
  // edits around each callback never perturb the iteration.
  template <typename Fn>
  void ForEachSuccessor(State s, Scratch& scratch, Fn&& fn) const {
    const std::uint64_t* base = interner_.Words(s);
    const std::size_t W = words_;
    scratch.config.assign(base, base + 2 * W);
    std::uint64_t* red = scratch.config.data();
    std::uint64_t* blue = red + W;
    const Weight rw = RedWeight(base);
    const Candidate c{scratch.config.data()};
    for (std::size_t w = 0; w < W; ++w) {  // M1: loadable = blue & ~red
      for (std::uint64_t m = blue[w] & ~red[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        const Weight wt = graph_.weight(v);
        if (rw + wt > budget_) continue;
        red[w] ^= m & -m;
        const bool stop = fn(c, wt, Load(v));
        red[w] ^= m & -m;
        if (stop) return;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {  // M2: storable = red & ~blue
      for (std::uint64_t m = red[w] & ~blue[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        blue[w] ^= m & -m;
        const bool stop = fn(c, graph_.weight(v), Store(v));
        blue[w] ^= m & -m;
        if (stop) return;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {  // M3: un-red non-sources
      for (std::uint64_t m = masks_.nodes()[w] & ~red[w] & ~masks_.sources()[w];
           m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        if (!GraphMasks::AllSet(graph_.parents(v), red) ||
            rw + graph_.weight(v) > budget_) {
          continue;
        }
        red[w] ^= m & -m;
        const bool stop = fn(c, 0, Compute(v));
        red[w] ^= m & -m;
        if (stop) return;
      }
    }
    for (std::size_t w = 0; w < W; ++w) {  // M4: deletable = red
      for (std::uint64_t m = red[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        red[w] ^= m & -m;
        const bool stop = fn(c, 0, Delete(v));
        red[w] ^= m & -m;
        if (stop) return;
      }
    }
  }

  template <typename Fn>
  void ForEachPredecessor(State s, Scratch& scratch, Fn&& fn) const {
    const std::uint64_t* base = interner_.Words(s);
    const std::size_t W = words_;
    scratch.config.assign(base, base + 2 * W);
    std::uint64_t* red = scratch.config.data();
    std::uint64_t* blue = red + W;
    const Candidate c{scratch.config.data()};
    // Undo M1: predecessor lacked red v, blue v present throughout.
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t m = red[w] & blue[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        red[w] ^= m & -m;
        fn(c, graph_.weight(v));
        red[w] ^= m & -m;
      }
    }
    // Undo M3: predecessor lacked red v and held all parents red.
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t m = red[w] & ~masks_.sources()[w]; m != 0;
           m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        red[w] ^= m & -m;
        if (GraphMasks::AllSet(graph_.parents(v), red)) fn(c, 0);
        red[w] ^= m & -m;
      }
    }
    // Undo M2: predecessor lacked blue v, red v present throughout.
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t m = red[w] & blue[w]; m != 0; m &= m - 1) {
        const NodeId v = NodeAt(w, m);
        blue[w] ^= m & -m;
        fn(c, graph_.weight(v));
        blue[w] ^= m & -m;
      }
    }
    // Undo M4: predecessor held red v.
    for (std::size_t w = 0; w < W; ++w) {
      for (std::uint64_t m = masks_.nodes()[w] & ~red[w]; m != 0;
           m &= m - 1) {
        red[w] ^= m & -m;
        fn(c, 0);
        red[w] ^= m & -m;
      }
    }
  }

  std::size_t MemoryBytes() const {
    return interner_.MemoryBytes() + bound_cache_.MemoryBytes();
  }

 private:
  static std::size_t WordsFor(NodeId n) {
    return std::max<std::size_t>(1, (static_cast<std::size_t>(n) + 63) / 64);
  }
  static NodeId NodeAt(std::size_t word, std::uint64_t m) {
    return static_cast<NodeId>(
        word * 64 + static_cast<std::size_t>(std::countr_zero(m)));
  }
  bool IsGoalWords(const std::uint64_t* config) const {
    const std::uint64_t* red = config;
    const std::uint64_t* blue = config + words_;
    for (std::size_t w = 0; w < words_; ++w) {
      if ((required_red_[w] & ~red[w]) != 0) return false;
      if (require_sinks_blue_ && (masks_.sinks()[w] & ~blue[w]) != 0) {
        return false;
      }
    }
    return true;
  }
  Weight RedWeight(const std::uint64_t* red) const {
    Weight total = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t m = red[w]; m != 0; m &= m - 1) {
        total += graph_.weight(static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(m))));
      }
    }
    return total;
  }

  const Graph& graph_;
  const Weight budget_;
  bool require_sinks_blue_;
  std::size_t words_;
  GraphMasks masks_;
  StateInterner interner_;
  std::vector<std::uint64_t> required_red_;
  std::vector<std::uint64_t> initial_red_;
  std::vector<std::uint64_t> initial_blue_;
  std::optional<StateBound> bound_;
  BoundCache bound_cache_;
};

// The bb engine's seed: a valid schedule from the polynomial heuristics,
// held as the incumbent the search falls back on whenever it is
// interrupted. Belady first (the stronger heuristic), simulator-checked;
// greedy-topo is the universal fallback (valid for every budget >=
// MinValidBudget). Only standard games are seeded — the heuristics don't
// speak the memory-state dialect (custom initial pebbles / required-red
// goals), so those games run bb as plain exact search.
struct Incumbent {
  Schedule schedule;
  Weight cost = kInfiniteCost;
};

std::optional<Incumbent> SeedIncumbent(const Graph& graph, Weight budget,
                                       const BruteForceOptions& options) {
  if (options.initial_red != 0 || options.initial_blue.has_value() ||
      options.required_red_at_end != 0 || !options.require_sinks_blue) {
    return std::nullopt;
  }
  ScheduleResult belady = BeladyScheduler(graph).Run(budget);
  if (belady.feasible && Simulate(graph, budget, belady.schedule).valid) {
    return Incumbent{std::move(belady.schedule), belady.cost};
  }
  ScheduleResult greedy = GreedyTopoScheduler(graph).Run(budget);
  if (greedy.feasible && Simulate(graph, budget, greedy.schedule).valid) {
    return Incumbent{std::move(greedy.schedule), greedy.cost};
  }
  return std::nullopt;
}

// One exact search: level-synchronous best-first waves over (f, g, len)
// keys plus canonical reconstruction, templated over the state policy.
// Waves settle in ascending key order; because the state_bound heuristic
// is admissible but not consistent, a settled state whose g later
// improves is simply re-queued at its better key and re-expanded
// (reopening), which the dist-map-ownership check already implements. The
// first wave holding a goal is still the optimum: any cheaper goal would
// keep an open optimal-path state at a strictly smaller key (h admissible
// along that path), contradicting the wave order.
//
// Anytime soundness: when the search aborts, every undiscovered solution
// still has to leave the settled set through an open state — one whose
// best-known g was recorded but that was never expanded at it. Such a
// state sits either in the pending map or in the current (partially
// expanded) wave, and along an optimal path its f = g + h is at most the
// optimal cost (h admissible; incumbent pruning only drops f strictly
// above a valid schedule's cost). min(current wave f, pending min f) is
// therefore a sound lower bound on the optimum at the moment of abort.
template <typename Ops>
class Searcher {
 public:
  Searcher(const Graph& graph, Weight budget,
           const BruteForceOptions& options)
      : budget_(budget),
        options_(options),
        informed_(options.engine != SearchEngine::kDijkstra),
        ops_(graph, budget, options) {
    start_ = ops_.Start();
    if (options.prune_root_loads != nullptr &&
        !options.prune_root_loads->empty()) {
      pruned_root_load_.assign(graph.num_nodes(), 0);
      for (NodeId v : *options.prune_root_loads) {
        if (v < graph.num_nodes()) pruned_root_load_[v] = 1;
      }
    }
  }

  ScheduleResult Run(bool want_schedule, const Incumbent* incumbent);

 private:
  using Scratch = typename Ops::Scratch;

  SearchStatus RunWaves(Weight h0, ThreadPool* pool, std::size_t threads);

  // Per-chunk relaxation memo over the shared dist map: the best (g, len)
  // this chunk has OFFERED the map for recently-seen states. The map is
  // monotone (TryImprove only ever lowers an entry), so a repeat offer
  // that is not lexicographically lower than a recorded one provably
  // cannot improve — it is dropped before paying the shard lock and the
  // (likely cold) probe. Direct-mapped, evict-on-collision. Every skipped
  // offer would have returned false and pushed nothing, so schedules and
  // costs are bit-identical with or without it.
  struct RelaxMemo {
    static constexpr std::size_t kSlots = 8192;  // power of two
    struct Slot {
      SearchState state = 0;
      Weight g = 0;
      std::uint32_t len = 0;
      bool used = false;
    };
    std::vector<Slot> slots;

    static std::size_t Index(SearchState s) {
      return static_cast<std::size_t>((s * 0x9e3779b97f4a7c15ull) >> 13) &
             (kSlots - 1);
    }
    // True when offering (g, len) for `s` provably cannot improve the
    // map. Otherwise records the offer — the caller MUST then make it.
    bool NonImproving(SearchState s, Weight g, std::uint32_t len) {
      if (slots.empty()) slots.resize(kSlots);
      Slot& slot = slots[Index(s)];
      if (slot.used && slot.state == s &&
          (slot.g < g || (slot.g == g && slot.len <= len))) {
        return true;
      }
      slot.state = s;
      slot.g = g;
      slot.len = len;
      slot.used = true;
      return false;
    }
  };

  void ExpandRange(const std::vector<State>& frontier, std::size_t lo,
                   std::size_t hi, Key level, UpdateBuffer& out,
                   SearchStats& stats, Scratch& scratch, RelaxMemo& memo);
  Schedule Reconstruct();

  // The pending level for `key`, drawn from the pool when new. Every
  // change to a pending level's capacity goes through here, PushPending,
  // or the extraction in RunWaves, which keeps pending_capacity_ exact.
  auto PendingLevel(const Key& key) {
    auto [it, inserted] = pending_.try_emplace(key);
    if (inserted) {
      it->second = level_pool_.Acquire();
      pending_capacity_ += it->second.capacity();
    }
    return it;
  }
  void PushPending(std::vector<State>& level, State s) {
    const std::size_t capacity = level.capacity();
    level.push_back(s);
    pending_capacity_ += level.capacity() - capacity;
  }

  // Folds one chunk's wave updates into the pending map. Successive
  // updates overwhelmingly share a key (a state's successors cluster in
  // f), so one memoized (key -> level) slot turns most of the per-update
  // map lookups into a single comparison.
  void MergeUpdates(const UpdateBuffer& u) {
    const WaveKey* memo_key = nullptr;
    std::vector<State>* memo_level = nullptr;
    for (std::size_t i = 0; i < u.size(); ++i) {
      const WaveKey& key = u.key(i);
      if (memo_key == nullptr || !(*memo_key == key)) {
        const auto it = PendingLevel(key);
        memo_key = &it->first;
        memo_level = &it->second;
      }
      PushPending(*memo_level, u.state(i));
    }
  }

  // kDeadline vs kCancelled: the token knows whether it carries a
  // wall-clock deadline.
  SearchStatus CancelStatus() const {
    if (options_.cancel != nullptr &&
        options_.cancel->remaining().has_value()) {
      return SearchStatus::kDeadline;
    }
    return SearchStatus::kCancelled;
  }

  // Sound lower bound on the optimum at an abort inside `level`'s wave:
  // see the class comment. Also records it for the result assembly.
  SearchStatus Abort(SearchStatus status, const Key& level) {
    abort_lb_ = level.f;
    if (!pending_.empty()) {
      abort_lb_ = std::min(abort_lb_, pending_.begin()->first.f);
    }
    return status;
  }

  // Bytes the search containers hold right now; the frontier_bytes_cap
  // meter. Sampled at wave boundaries only, so it is a pure function of
  // the wave sequence — memory-cap stops are deterministic at a fixed
  // thread count. The pending levels are metered by a running total: a
  // search can hold thousands of small levels, and rescanning them at
  // every wave once took about 45% of a search on 12-node graphs.
  std::size_t FrontierBytes() const {
    std::size_t bytes = dist_.MemoryBytes() + ops_.MemoryBytes() +
                        pending_capacity_ * sizeof(State);
    for (const UpdateBuffer& u : chunk_updates_) {
      bytes += u.MemoryBytes();
    }
    return bytes;
  }

  // Anytime result assembly: the incumbent plus whatever bound the search
  // managed to certify before it was interrupted. A gap of zero means the
  // frontier minimum climbed past the incumbent cost — the incumbent is
  // proven optimal even though the search never settled a goal.
  ScheduleResult AnytimeResult(bool want_schedule, const Incumbent& incumbent,
                               Weight lb, Termination termination) const {
    ScheduleResult result;
    result.feasible = true;
    result.cost = incumbent.cost;
    if (want_schedule) result.schedule = incumbent.schedule;
    result.lower_bound = std::min(incumbent.cost, lb);
    result.optimality_gap = result.cost - result.lower_bound;
    result.termination = result.optimality_gap == 0 ? Termination::kOptimal
                                                    : termination;
    return result;
  }

  // Abort without an incumbent: the legacy timed-out shape, now carrying
  // the certified lower bound and the typed stop reason.
  static ScheduleResult TimedOutResult(SearchStatus status, Weight lb) {
    ScheduleResult result;
    result.timed_out = true;
    result.lower_bound = lb;
    result.termination = ToTermination(status);
    return result;
  }

  const Weight budget_;
  const BruteForceOptions& options_;
  const bool informed_;  // A* ordering (every engine but dijkstra)
  Ops ops_;
  State start_ = 0;
  Scratch main_scratch_;  // start heuristic + single-threaded reconstruction

  FlatDistMap dist_;
  std::map<Key, std::vector<State>> pending_;
  std::size_t pending_capacity_ = 0;  // summed capacity of pending_ levels
  LevelPool level_pool_;
  std::vector<UpdateBuffer> chunk_updates_;
  std::vector<Scratch> chunk_scratch_;
  std::vector<RelaxMemo> chunk_memo_;

  // Shared best-known goal cost: relaxations that discover a goal lower it
  // (atomically, across all workers), and every relaxation prunes targets
  // whose f strictly exceeds it. h is admissible, so f > bound proves the
  // successor cannot sit on a solution of cost <= bound; only strictly-
  // worse states are dropped, and the distance map below the optimum is
  // undisturbed — timing of the bound updates cannot leak into the result.
  // The bb engine seeds it with its incumbent cost, which is what makes
  // the incumbent a pruning bound.
  std::atomic<Weight> best_goal_cost_{kInfiniteCost};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> interner_full_{false};

  SearchStats stats_;
  Weight abort_lb_ = 0;  // open-frontier bound at the last abort
  // Root M1 loads suppressed by orbit pruning (empty = none); see
  // BruteForceOptions::prune_root_loads for the soundness contract.
  std::vector<unsigned char> pruned_root_load_;
  Key goal_key_;
  std::vector<State> goal_states_;
};

template <typename Ops>
void Searcher<Ops>::ExpandRange(const std::vector<State>& frontier,
                                std::size_t lo, std::size_t hi, Key level,
                                UpdateBuffer& out, SearchStats& stats,
                                Scratch& scratch, RelaxMemo& memo) {
  const CancelToken* cancel = options_.cancel;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t moves_since_poll = 0;
  // Successors that survive the g/h/f gates are staged here per expanded
  // state; their dist-map slots are prefetched at stage time, so by the
  // time the flush loop below probes the map, the lines are (usually)
  // already in flight — the map's L2/L3 miss overlaps the remaining move
  // evaluations instead of stalling each relaxation in turn. Flushing in
  // stage order keeps the per-thread TryImprove/Push sequence identical
  // to the unbatched loop, so determinism is untouched.
  struct Staged {
    State next;
    Weight g;
    Weight f;
    std::uint32_t len;
    bool goal;
  };
  std::vector<Staged> staged;
  staged.reserve(64);
  for (std::size_t i = lo; i < hi; ++i) {
    if (cancelled_.load(std::memory_order_relaxed)) break;
    const State s = frontier[i];
    // One closure walk per expanded state; every successor below prices
    // off this context through the incremental fast paths (§14).
    if (informed_) ops_.PrepareExpand(s, scratch);
    // One bound snapshot per state, not two atomic loads per move. The
    // bound only ever decreases, so pruning against a stale (higher)
    // value is sound — it prunes a subset of what the live value would,
    // and pruning is never load-bearing for correctness (the map is
    // monotone). Goal improvements still CAS the shared atomic below.
    const Weight bound = best_goal_cost_.load(std::memory_order_relaxed);
    bool aborted = false;
    staged.clear();
    ops_.ForEachSuccessor(s, scratch, [&](const auto& c, Weight move_cost,
                                          Move move) {
      // Root orbit pruning: skip suppressed first loads before they count
      // as generated (the canonical optimal path never uses one).
      if (!pruned_root_load_.empty() && s == start_ &&
          move.type == MoveType::kLoad && pruned_root_load_[move.node] != 0) {
        return false;
      }
      ++stats.generated;
      if (++moves_since_poll >= kCancelPollMoves) {
        moves_since_poll = 0;
        if (cancelled_.load(std::memory_order_relaxed) ||
            (cancel != nullptr && cancel->cancelled())) {
          cancelled_.store(true, std::memory_order_relaxed);
          aborted = true;
          return true;
        }
      }
      // g-first: h >= 0, so g > bound already implies f > bound — and
      // skipping the heuristic on such moves is pure profit when the
      // bound is primed (bb starts it at the incumbent cost).
      // Prunes the exact same successor set as the f-test alone; only
      // the informational pruned_bound/pruned_heuristic split can shift.
      const Weight g = level.g + move_cost;
      if (g > bound) {
        ++stats.pruned_bound;  // already provably worse than a solution
        return false;
      }
      Weight h = 0;
      if (informed_) {
        h = ops_.HeuristicMove(c, move, scratch, stats);
        if (h >= kInfiniteCost) {
          ++stats.pruned_heuristic;  // no completion exists from `c`
          return false;
        }
      }
      const Weight f = g + h;
      if (f > bound) {
        ++stats.pruned_bound;  // already provably worse than a solution
        return false;
      }
      const std::uint32_t len = level.len + 1;
      State next = 0;
      if (!ops_.Commit(c, scratch, stats, &next)) {
        interner_full_.store(true, std::memory_order_relaxed);
        aborted = true;
        return true;
      }
      if (memo.NonImproving(next, g, len)) return false;
      dist_.Prefetch(next);
      staged.push_back({next, g, f, len, ops_.IsGoalCandidate(c)});
      return false;
    });
    for (const Staged& p : staged) {
      if (dist_.TryImprove(p.next, p.g, p.len)) {
        ++stats.improved;
        if (p.goal) {
          // h(goal) == 0, so f == g here.
          Weight seen = best_goal_cost_.load(std::memory_order_relaxed);
          while (p.g < seen && !best_goal_cost_.compare_exchange_weak(
                                   seen, p.g, std::memory_order_relaxed)) {
          }
        }
        out.Push(Key{p.f, p.g, p.len}, p.next);
      }
    }
    if (aborted) break;
  }
  stats.succ_gen_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

template <typename Ops>
SearchStatus Searcher<Ops>::RunWaves(Weight h0, ThreadPool* pool,
                                     std::size_t threads) {
  dist_.TryImprove(start_, 0, 0);
  PushPending(PendingLevel(Key{h0, 0, 0})->second, start_);

  std::vector<State> live;
  while (!pending_.empty()) {
    auto level_node = pending_.extract(pending_.begin());
    const Key level = level_node.key();
    std::vector<State>& frontier = level_node.mapped();
    pending_capacity_ -= frontier.capacity();

    // Drop states this level no longer owns: a later relaxation in an
    // earlier wave may have improved them into a lower level (which then
    // already expanded them), and reopening re-queues improved states
    // under their better key.
    live.clear();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      // Run a few slots ahead of the Finds — the filter is a random walk
      // over the (large) dist map, and the lookahead hides most of the
      // per-probe cache miss.
      if (i + 8 < frontier.size()) dist_.Prefetch(frontier[i + 8]);
      const State s = frontier[i];
      const FlatDistMap::Entry* e = dist_.Find(s);
      if (e != nullptr && e->g == level.g && e->len == level.len) {
        live.push_back(s);
      }
    }
    level_pool_.Release(std::move(frontier));
    if (live.empty()) continue;
    ++stats_.waves;

    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Abort(CancelStatus(), level);
    }

    for (const State s : live) {
      if (ops_.IsGoal(s)) goal_states_.push_back(s);
    }
    if (!goal_states_.empty()) {
      // Waves settle in ascending (f, g, len) order, so the first wave
      // holding a goal is the optimum; its states are never expanded.
      goal_key_ = level;
      return SearchStatus::kFound;
    }

    stats_.expanded += live.size();
    stats_.max_frontier = std::max<std::uint64_t>(stats_.max_frontier,
                                                  live.size());
    if (stats_.expanded > options_.max_states) {
      return Abort(SearchStatus::kStateCap, level);
    }
    const std::size_t bytes = FrontierBytes();
    stats_.frontier_bytes = std::max<std::uint64_t>(stats_.frontier_bytes,
                                                    bytes);
    if (options_.frontier_bytes_cap != 0 &&
        bytes > options_.frontier_bytes_cap) {
      return Abort(SearchStatus::kMemoryCap, level);
    }

    if (pool != nullptr && live.size() >= threads * 2) {
      const std::size_t chunk_count = std::min(live.size(), threads * 4);
      const std::size_t chunk =
          (live.size() + chunk_count - 1) / chunk_count;
      const std::size_t num_chunks = (live.size() + chunk - 1) / chunk;
      if (chunk_updates_.size() < num_chunks) {
        chunk_updates_.resize(num_chunks);
      }
      if (chunk_scratch_.size() < num_chunks) {
        chunk_scratch_.resize(num_chunks);
      }
      if (chunk_memo_.size() < num_chunks) {
        chunk_memo_.resize(num_chunks);
      }
      std::vector<SearchStats> chunk_stats(num_chunks);
      TaskGroup group(*pool);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        chunk_updates_[c].Clear();
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(lo + chunk, live.size());
        group.Submit([this, &live, lo, hi, level, &chunk_stats, c] {
          ExpandRange(live, lo, hi, level, chunk_updates_[c], chunk_stats[c],
                      chunk_scratch_[c], chunk_memo_[c]);
        });
      }
      group.Wait();
      for (std::size_t c = 0; c < num_chunks; ++c) {
        stats_.Accumulate(chunk_stats[c]);
        MergeUpdates(chunk_updates_[c]);
      }
    } else {
      if (chunk_updates_.empty()) chunk_updates_.resize(1);
      if (chunk_scratch_.empty()) chunk_scratch_.resize(1);
      if (chunk_memo_.empty()) chunk_memo_.resize(1);
      chunk_updates_[0].Clear();
      ExpandRange(live, 0, live.size(), level, chunk_updates_[0], stats_,
                  chunk_scratch_[0], chunk_memo_[0]);
      MergeUpdates(chunk_updates_[0]);
    }
    // Mid-wave aborts stop after the merge above, so the pending map holds
    // every update the workers managed to record — which is exactly what
    // the Abort() lower bound wants to scan.
    if (interner_full_.load(std::memory_order_relaxed)) {
      return Abort(SearchStatus::kMemoryCap, level);
    }
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Abort(CancelStatus(), level);
    }
  }
  return SearchStatus::kInfeasible;
}

template <typename Ops>
ScheduleResult Searcher<Ops>::Run(bool want_schedule,
                                  const Incumbent* incumbent) {
  // Span label carries the engine, so profiles separate dijkstra waves
  // from informed ones.
  const obs::ScopedSpan span(std::string("search.") +
                             ToString(options_.engine));
  struct StatsFlush {
    const Searcher* self;
    ~StatsFlush() {
      if (self->options_.stats != nullptr) {
        *self->options_.stats = self->stats_;
      }
      // Mirror the run's counters into the process-wide registry
      // (write-only: nothing in the search reads these back).
      static const obs::Counter runs("search.runs");
      static const obs::Counter expanded("search.expanded");
      static const obs::Counter waves("search.waves");
      static const obs::Counter generated("search.generated");
      static const obs::Counter improved("search.improved");
      static const obs::Counter pruned_bound("search.pruned_bound");
      static const obs::Counter pruned_heuristic("search.pruned_heuristic");
      static const obs::Gauge max_frontier("search.max_frontier");
      static const obs::Gauge frontier_bytes("search.frontier_bytes");
      // Hot-path instrumentation (§14). Hit/miss splits are reporting-only
      // and interleaving-dependent under threads; nothing in the search
      // reads them back, so the determinism contract is untouched.
      static const obs::Counter bound_cache_hit("search.bound_cache_hit");
      static const obs::Counter bound_cache_miss("search.bound_cache_miss");
      static const obs::Counter intern_cache_hit("search.intern_cache_hit");
      static const obs::Counter intern_cache_miss("search.intern_cache_miss");
      static const obs::Counter succ_gen_ns("search.succ_gen_ns");
      runs.Add(1);
      expanded.Add(self->stats_.expanded);
      waves.Add(self->stats_.waves);
      generated.Add(self->stats_.generated);
      improved.Add(self->stats_.improved);
      pruned_bound.Add(self->stats_.pruned_bound);
      pruned_heuristic.Add(self->stats_.pruned_heuristic);
      max_frontier.Max(self->stats_.max_frontier);
      frontier_bytes.Max(self->stats_.frontier_bytes);
      bound_cache_hit.Add(self->stats_.bound_cache_hits);
      bound_cache_miss.Add(self->stats_.bound_cache_misses);
      intern_cache_hit.Add(self->stats_.intern_cache_hits);
      intern_cache_miss.Add(self->stats_.intern_cache_misses);
      succ_gen_ns.Add(self->stats_.succ_gen_ns);
    }
  } flush{this};

  const bool anytime = incumbent != nullptr;  // only the bb engine seeds one

  if (ops_.InitialRedWeight() > budget_) return ScheduleResult::Infeasible();

  // h at the start state: the day-zero lower bound every abort falls back
  // on, and the cheapest infeasibility oracle we have.
  const Weight h0 = informed_ ? ops_.HeuristicState(start_, main_scratch_) : 0;
  if (h0 >= kInfiniteCost) return ScheduleResult::Infeasible();

  // Day-zero reported bound: the start-state h, tightened by the caller's
  // certified root bound (a ganalysis certificate). Reporting only — the
  // search order and every schedule are independent of it.
  const Weight root_lb = std::max(h0, options_.root_lower_bound);

  // Honor tokens that are already expired before any state settles (the
  // in-loop polls would miss them on small graphs). The bb engine still
  // returns its incumbent here — the "never fail to return a schedule"
  // half of the anytime contract.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    if (anytime) {
      return AnytimeResult(want_schedule, *incumbent, root_lb,
                           ToTermination(CancelStatus()));
    }
    return TimedOutResult(CancelStatus(), root_lb);
  }

  const std::size_t threads = ResolveThreadCount(options_.threads);
  // Pool size is capped at the hardware concurrency: extra workers on an
  // oversubscribed machine only add context switches under the expansion
  // locks. Results are unchanged by construction — the determinism
  // contract holds for ANY worker count, and the wave chunking stays a
  // function of the REQUESTED count (chunk merges are chunk-ordered, so
  // the pending map sees the same update sequence either way).
  const std::size_t workers = std::min<std::size_t>(
      threads,
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  // Single-worker runs never contend, so the dist map drops its shard
  // locks — TryImprove becomes plain loads and stores.
  dist_.SetConcurrent(pool_ptr != nullptr);

  // Incumbent pruning drops only states with f > incumbent >= C*, and
  // every state on an optimal path has f <= C*, so the entries the
  // canonical reconstruction reads are exactly the ones plain A* holds.
  if (anytime) {
    best_goal_cost_.store(incumbent->cost, std::memory_order_relaxed);
  }
  const SearchStatus status = RunWaves(h0, pool_ptr, threads);
  if (IsAbort(status)) {
    const Weight lb = std::max(root_lb, abort_lb_);
    if (anytime) {
      return AnytimeResult(want_schedule, *incumbent, lb,
                           ToTermination(status));
    }
    return TimedOutResult(status, lb);
  }
  if (status == SearchStatus::kInfeasible) {
    if (anytime) {
      // Unreachable in practice: the incumbent is a valid schedule, so a
      // goal with f <= its cost exists and incumbent pruning cannot drop
      // it. Handled honestly all the same — hand the incumbent back with
      // the start bound rather than contradicting it.
      return AnytimeResult(want_schedule, *incumbent, root_lb,
                           Termination::kComplete);
    }
    return ScheduleResult::Infeasible();
  }

  ScheduleResult result;
  result.feasible = true;
  result.cost = goal_key_.g;
  result.lower_bound = result.cost;
  result.optimality_gap = 0;
  result.termination = Termination::kOptimal;
  if (want_schedule) {
    const obs::ScopedSpan reconstruct_span("search.reconstruct");
    result.schedule = Reconstruct();
  }
  return result;
}

// Rebuilds the canonical optimal schedule from the finished distance map.
// Two passes over the tight-edge graph (edges where dist[p] + move ==
// dist[s], the edges shortest paths are made of):
//   1. mark every state lying on some optimal path, by walking tight
//      edges backwards from the optimal goal states;
//   2. walk forwards from the start, always taking the first marked tight
//      edge in canonical move order.
// Both passes are pure functions of the distance map restricted to
// optimal-path states, and those entries are identical for every engine
// and thread count (DESIGN.md §9): a state is marked iff it is genuinely
// reachable at exactly the tight (g, len) — any such state lies on a
// cost-C* path, every prefix of which has f <= C* by admissibility, so
// no engine's pruning can have missed it. The walk asks the policy for
// predecessor/successor candidates and resolves them with FindExisting()
// (never Commit), so reconstruction cannot grow the interned state set.
template <typename Ops>
Schedule Searcher<Ops>::Reconstruct() {
  const Weight goal_g = goal_key_.g;
  const std::uint32_t goal_len = goal_key_.len;

  std::unordered_set<State> marked;
  std::vector<State> stack;
  for (const State g : goal_states_) {
    if (marked.insert(g).second) stack.push_back(g);
  }
  while (!stack.empty()) {
    const State s = stack.back();
    stack.pop_back();
    const FlatDistMap::Entry* entry = dist_.Find(s);
    assert(entry != nullptr);
    if (entry->len == 0) continue;  // the start state has no predecessors
    const Weight s_g = entry->g;
    const std::uint32_t s_len = entry->len;
    ops_.ForEachPredecessor(s, main_scratch_,
                            [&](const auto& c, Weight move_cost) {
      State p = 0;
      if (!ops_.FindExisting(c, &p)) return;
      const FlatDistMap::Entry* pe = dist_.Find(p);
      if (pe != nullptr && pe->g == s_g - move_cost &&
          pe->len == s_len - 1 && marked.insert(p).second) {
        stack.push_back(p);
      }
    });
  }
  assert(marked.contains(start_));

  std::vector<Move> moves;
  moves.reserve(goal_len);
  State s = start_;
  Weight g = 0;
  std::uint32_t len = 0;
  while (!(g == goal_g && len == goal_len && ops_.IsGoal(s))) {
    assert(len < goal_len);
    bool advanced = false;
    ops_.ForEachSuccessor(s, main_scratch_,
                          [&](const auto& c, Weight move_cost, Move move) {
      State next = 0;
      if (!ops_.FindExisting(c, &next)) return false;
      const FlatDistMap::Entry* d = dist_.Find(next);
      if (d == nullptr || d->g != g + move_cost || d->len != len + 1 ||
          !marked.contains(next)) {
        return false;
      }
      moves.push_back(move);
      s = next;
      g += move_cost;
      ++len;
      advanced = true;
      return true;
    });
    assert(advanced);
    if (!advanced) break;  // unreachable; avoids a hang in release builds
  }
  return Schedule(std::move(moves));
}

// Builds the searcher — the policy's masks, StateBound and state interner
// — under its own span, runs it, and frees it under another.
template <typename Ops>
ScheduleResult SetUpAndRun(const Graph& graph, Weight budget,
                           const BruteForceOptions& options,
                           bool want_schedule, const Incumbent* incumbent) {
  std::optional<Searcher<Ops>> searcher;
  {
    const obs::ScopedSpan span("search.setup");
    searcher.emplace(graph, budget, options);
  }
  ScheduleResult result = searcher->Run(want_schedule, incumbent);
  {
    const obs::ScopedSpan span("search.teardown");
    searcher.reset();
  }
  return result;
}

}  // namespace

const char* ToString(SearchEngine engine) {
  switch (engine) {
    case SearchEngine::kDijkstra: return "dijkstra";
    case SearchEngine::kAStar: return "astar";
    case SearchEngine::kBranchAndBound: return "bb";
  }
  return "unknown";
}

BruteForceScheduler::BruteForceScheduler(const Graph& graph) : graph_(graph) {}

ScheduleResult BruteForceScheduler::Search(Weight budget,
                                           const BruteForceOptions& options,
                                           bool want_schedule) const {
  // Route through the packed fast path whenever the whole configuration
  // fits one 64-bit word; wider graphs (or the differential-testing hook)
  // take the interned wide representation. Both return bit-identical
  // results — there is no graph size the engines refuse.
  const NodeId n = graph_.num_nodes();
  const bool wide = n > 32 || options.force_wide_state;

  // Pebble-mask bits past the graph follow Simulate's rule in both state
  // representations: initial bits there are ignored, and a required-red
  // bit there can never be met.
  const std::uint64_t in_graph =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  if ((options.required_red_at_end & ~in_graph) != 0) {
    if (options.stats != nullptr) *options.stats = SearchStats{};
    return ScheduleResult::Infeasible();
  }
  BruteForceOptions opts = options;
  opts.initial_red &= in_graph;
  if (opts.initial_blue.has_value()) *opts.initial_blue &= in_graph;

  // Start-state certificates and root orbit pruning are sound only for
  // the standard game (empty red, sources blue, sinks-blue goal); drop
  // them silently for the memory-state variants.
  const bool standard_game =
      opts.initial_red == 0 && !opts.initial_blue.has_value() &&
      opts.required_red_at_end == 0 && opts.require_sinks_blue;
  if (!standard_game) {
    opts.root_lower_bound = 0;
    opts.prune_root_loads = nullptr;
  }

  std::optional<Incumbent> incumbent;
  if (opts.engine == SearchEngine::kBranchAndBound) {
    const obs::ScopedSpan span("search.seed_incumbent");
    incumbent = SeedIncumbent(graph_, budget, opts);
  }
  const Incumbent* inc = incumbent.has_value() ? &*incumbent : nullptr;

  ScheduleResult result =
      wide
          ? SetUpAndRun<WideOps>(graph_, budget, opts, want_schedule, inc)
          : SetUpAndRun<PackedOps>(graph_, budget, opts, want_schedule, inc);

  if (options.engine == SearchEngine::kBranchAndBound) {
    static const obs::Counter bb_runs("search.bb.runs");
    static const obs::Counter bb_optimal("search.bb.optimal");
    static const obs::Counter bb_anytime("search.bb.anytime");
    static const obs::Gauge bb_gap("search.bb.gap");
    bb_runs.Add(1);
    if (result.termination == Termination::kOptimal) {
      bb_optimal.Add(1);
    } else if (result.feasible) {
      bb_anytime.Add(1);
    }
    if (result.feasible) {
      bb_gap.Max(static_cast<std::uint64_t>(result.optimality_gap));
    }
  }
  return result;
}

ScheduleResult BruteForceScheduler::Run(Weight budget,
                                        const BruteForceOptions& options) const {
  return Search(budget, options, /*want_schedule=*/true);
}

Weight BruteForceScheduler::CostOnly(Weight budget,
                                     const BruteForceOptions& options) const {
  return Search(budget, options, /*want_schedule=*/false).cost;
}

}  // namespace wrbpg
