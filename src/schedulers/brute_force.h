// Exhaustive optimal WRBPG solver — the test oracle and the hot exact
// path of the RobustScheduler chain.
//
// Shortest-path search over pebbling configurations (red mask, blue mask)
// with move costs from Definition 2.2 (M1/M2 cost w_v, M3/M4 free).
// Exponential in |V|; the informed engines certify optima for graphs of a
// few dozen nodes, and the branch-and-bound engine degrades gracefully on
// anything larger (see the anytime contract below).
//
// Three engines share one searcher (DESIGN.md §9/§11):
//
//   kDijkstra        — the PR 3 uninformed level-synchronous search, kept
//                      as the audited baseline for differential tests and
//                      the --engine-compare benchmark.
//   kAStar           — the exact-mode default. A* ordered by (g + h, g,
//                      len) where h is the core/state_bound admissible
//                      remaining-I/O bound (Prop 2.4 generalized per
//                      state). h is admissible but not consistent, so
//                      states reopen when their g improves; the first
//                      settled goal is still optimal.
//   kBranchAndBound  — the anytime engine ("bb"). Seeds an incumbent
//                      schedule from the polynomial heuristics (belady,
//                      then greedy-topo), starts the A* pruning bound at
//                      the incumbent cost, and under any deadline,
//                      frontier byte budget, or state cap returns the
//                      incumbent plus a sound optimality gap instead of
//                      failing. Run to completion it settles exactly the
//                      states kAStar settles and returns the same
//                      canonical optimum as every other engine.
//
// Anytime contract (scheduler.h): every feasible result satisfies
// lower_bound <= optimal <= cost with optimality_gap == cost -
// lower_bound, and `termination` records why the engine stopped
// (optimal / deadline / memory-cap / cancelled). The interrupted lower
// bound is the minimum f over the open frontier — sound because h is
// admissible and every undiscovered solution leaves the settled set
// through an open state.
//
// State representation: graphs of at most 32 nodes pack (red, blue) into
// one 64-bit word (the inline fast path, bit-compatible with the PR 3-5
// engines); wider graphs intern word-array configurations in a
// StateInterner and search over the interned ids, so there is NO graph
// size beyond which the engines refuse to run.
//
// Options support the Sec. 4.1 memory-state semantics: arbitrary initial
// red/blue pebbles and a required final red set, so Eq. (8)'s P_m can be
// cross-checked as well as the plain game.
//
// Determinism contract (DESIGN.md §8/§9): for a given (graph, budget,
// options) the result is a pure function of the inputs — independent of
// the thread count AND of the engine — for every run that completes
// (deadline-interrupted results are wall-clock-dependent by nature;
// memory/state-cap stops are deterministic at a fixed thread count). The
// returned schedule is the canonical optimum: lowest cost, then fewest
// moves, then the lexicographically-least move sequence under the move
// order M1 < M2 < M3 < M4, node id ascending. All engines reconstruct
// from a distance map whose optimal-path entries provably coincide, so
// `--threads 1` vs `--threads N` and dijkstra vs A* vs bb all agree bit
// for bit; differential tests at 1/2/8 threads pin this for both the
// packed and the wide state representation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"
#include "util/cancel.h"

namespace wrbpg {

enum class SearchEngine : std::uint8_t {
  kDijkstra = 0,
  kAStar,
  kBranchAndBound,
};

const char* ToString(SearchEngine engine);

// Counters filled by a search when BruteForceOptions::stats is set.
// `expanded` and `waves` are pure functions of (graph, budget, options) —
// identical at any thread count — and are what --engine-compare reports.
// The relaxation-level counters (generated, improved, pruned_*) can vary
// slightly across parallel runs (transient races decide which thread's
// relaxation "improves" an entry) and are informational only.
struct SearchStats {
  std::uint64_t expanded = 0;          // states settled and fanned out
  std::uint64_t waves = 0;             // level-synchronous waves run
  std::uint64_t generated = 0;         // successor relaxations attempted
  std::uint64_t improved = 0;          // relaxations that changed the map
  std::uint64_t pruned_bound = 0;      // cut by f > best known goal cost
  std::uint64_t pruned_heuristic = 0;  // cut by h == infinity (dead state)
  // Peak frontier occupancy: the largest number of live states any single
  // wave expanded — the search's working-set high-water mark. A pure
  // function of (graph, budget, options) like `expanded`/`waves`; merged
  // by max, not sum.
  std::uint64_t max_frontier = 0;
  // Estimated peak bytes held by the search containers (dist map slabs,
  // interned states, pending levels), sampled at wave boundaries — what
  // the frontier_bytes_cap meters. Merged by max.
  std::uint64_t frontier_bytes = 0;

  // Hot-path instrumentation (DESIGN.md §14). All five are informational
  // only — nothing in the search reads them back, and the hit/miss splits
  // depend on thread interleaving (which worker reaches a shared-cache
  // slot first), so identical runs may report different splits while still
  // producing bit-identical schedules.
  std::uint64_t bound_cache_hits = 0;    // slow-path h served from the cache
  std::uint64_t bound_cache_misses = 0;  // slow-path h freshly walked
  std::uint64_t intern_cache_hits = 0;   // interner lookups short-circuited
  std::uint64_t intern_cache_misses = 0;  // ... that hit the shared table
  std::uint64_t succ_gen_ns = 0;  // wall time inside the expansion loops

  void Accumulate(const SearchStats& other) {
    expanded += other.expanded;
    waves += other.waves;
    generated += other.generated;
    improved += other.improved;
    pruned_bound += other.pruned_bound;
    pruned_heuristic += other.pruned_heuristic;
    max_frontier = std::max(max_frontier, other.max_frontier);
    frontier_bytes = std::max(frontier_bytes, other.frontier_bytes);
    bound_cache_hits += other.bound_cache_hits;
    bound_cache_misses += other.bound_cache_misses;
    intern_cache_hits += other.intern_cache_hits;
    intern_cache_misses += other.intern_cache_misses;
    succ_gen_ns += other.succ_gen_ns;
  }
};

struct BruteForceOptions {
  // The three pebble masks are bitmasks over NodeId (ids < 64), read by
  // Simulate's rule: initial bits at or above num_nodes() are ignored,
  // and a required-red bit there can never be met, so the game is
  // infeasible.
  std::uint64_t initial_red = 0;
  // Blue pebbles at the start; defaults to the sources A(G).
  std::optional<std::uint64_t> initial_blue;
  // Goal: these nodes must hold red pebbles at the end (memory-state games).
  std::uint64_t required_red_at_end = 0;
  // Goal: all sinks must hold blue pebbles (the game's stopping condition).
  bool require_sinks_blue = true;
  // Safety valve: give up past this many settled states. The bb engine
  // returns its incumbent with termination == kMemoryCap; the exact
  // engines come back timed_out.
  std::size_t max_states = 20'000'000;
  // Byte budget for the search containers (dist map, interned states,
  // pending levels), checked at wave boundaries; 0 disables. Exhaustion
  // is handled exactly like max_states: incumbent-return for bb,
  // timed_out for the exact engines — never an allocation failure. The
  // default keeps a runaway wide search under control while being far
  // above anything the <= 32-node oracles touch.
  std::size_t frontier_bytes_cap = 4ull << 30;
  // Cooperative cancellation: polled between search waves and every
  // few-thousand generated moves inside expansion chunks (move-count
  // based, so deadlines hold even inside one huge frontier level). On
  // expiry the bb engine returns its incumbent; the exact engines unwind
  // with a timed_out result. The token is threaded through every pool
  // task, so a parallel search honors deadlines exactly like a
  // sequential one.
  const CancelToken* cancel = nullptr;
  // Worker threads for the frontier expansion. 1 = fully sequential
  // (no pool is created); 0 = DefaultSearchThreads(), the process-wide
  // default installed by --threads / WRBPG_THREADS. Any value returns the
  // identical result — see the determinism contract above.
  std::size_t threads = 0;
  // Which search engine to run. All engines return identical results on
  // runs that complete; they differ only in how many states they touch on
  // the way (see the --engine-compare benchmark) and in how they behave
  // when interrupted (only bb holds an incumbent).
  SearchEngine engine = SearchEngine::kAStar;
  // Testing hook: route a <= 32-node graph through the wide interned-state
  // representation instead of the packed fast path. Results are
  // bit-identical (pinned by engine_differential_test); only the
  // state-plumbing differs.
  bool force_wide_state = false;
  // Certified start-state lower bound, typically the best ganalysis bound
  // certificate (ganalysis/bounds.h). Folded into the REPORTED
  // lower_bound at every interrupted exit — never into per-state h or the
  // expansion order — so schedules and costs are bit-identical with or
  // without it; only the anytime gap tightens (and an incumbent matching
  // the certificate promotes to kOptimal). The caller certifies the value
  // is a sound lower bound for this (graph, budget); it is ignored for
  // non-standard games (custom initial/required pebbles), where start-
  // state certificates do not apply.
  Weight root_lower_bound = 0;
  // Orbit pruning of first moves: the searcher skips the ROOT M1 load of
  // every node listed here. Soundness is the caller's certificate: list
  // only sources that are orbit-equivalent (verified automorphism,
  // ganalysis/canonical.h) to a smaller-id source NOT listed, so the
  // canonical optimal schedule — whose first move provably loads its
  // orbit's minimum — survives and results stay bit-identical (pinned by
  // orbit_prune_differential_test). Ignored for non-standard games.
  const std::vector<NodeId>* prune_root_loads = nullptr;
  // When non-null, filled with the search's counters on return.
  SearchStats* stats = nullptr;
};

class BruteForceScheduler {
 public:
  explicit BruteForceScheduler(const Graph& graph);

  ScheduleResult Run(Weight budget, const BruteForceOptions& options) const;
  ScheduleResult Run(Weight budget) const {
    return Run(budget, BruteForceOptions{});
  }
  Weight CostOnly(Weight budget, const BruteForceOptions& options) const;
  Weight CostOnly(Weight budget) const {
    return CostOnly(budget, BruteForceOptions{});
  }

 private:
  ScheduleResult Search(Weight budget, const BruteForceOptions& options,
                        bool want_schedule) const;

  const Graph& graph_;
};

}  // namespace wrbpg
