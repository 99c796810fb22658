// Scheduling-as-a-service front end (DESIGN.md §13).
//
// Production deployments ask for schedules of the SAME graphs over and
// over — the parameterized dataflow families are solved once per shape
// and served millions of times. ScheduleService turns the solver stack
// into that shape:
//
//   1. Key derivation. A request (graph, budget) canonicalizes to a
//      64-bit cache key: the iso-invariant ganalysis::HashGraph folded
//      with the budget. Engine choice and thread count are deliberately
//      NOT part of the key — the determinism contract (DESIGN.md §8/§9)
//      makes every completed solve a pure function of (graph, budget),
//      so results computed by any engine at any thread count are
//      interchangeable. Deadlines are not in the key either, because the
//      cache only ever admits deadline-independent results (below).
//      A key memo maps a cheap fingerprint of the labeling (budget,
//      weights, child rows) to its key, so a labeling served before
//      skips HashGraph. The memo is a ShardedLruCache holding a fixed
//      1/kKeyMemoShare of cache_bytes; a fingerprint collision can only
//      point a request at the wrong entry, which step 2 then refuses.
//
//   2. Sharded LRU schedule cache (util/lru.h) with a byte-budget
//      eviction policy; entries account their wrbpg-bin-v1 encoded size
//      (core/binio.h). Every hit is verified against the entry's stored
//      graph and budget. A stored graph structurally equal to the
//      request's (Graph::operator==, the same as byte-identical
//      encodings) serves the stored result unchanged — bit-identical to
//      the cold solve by construction. A stored graph that is a permuted
//      ISOMORPH of the request's (same iso-invariant key, different node
//      ids) is served by renaming the stored schedule through an
//      explicitly verified isomorphism (FindIsomorphism) and
//      re-validating it in the simulator — same cost, provably valid,
//      but node ids follow the request's labeling. An entry keeps its
//      graph's IsomorphismLabeling from admission (4 bytes per node,
//      counted in its accounted bytes), so an isomorph hit labels only
//      the request.
//
//   3. Single-flight dedup (util/singleflight.h): concurrent identical
//      requests (exact graph bytes + budget) trigger exactly ONE solve;
//      the followers share the leader's result and are counted as
//      deduplicated. Only a miss encodes the request: its bytes key the
//      flight and size the cache entry.
//
//   4. Misses dispatch through the robust fallback chain
//      (robust/robust_scheduler.h), so every response honors the PR 6
//      anytime contract: a deadline, cancellation, or memory cap still
//      yields an incumbent schedule plus a certified optimality gap,
//      never nothing. ServeBatch additionally runs a deadline-aware
//      batching executor on the util ThreadPool: identical in-batch
//      requests collapse to one solve and distinct ones are dispatched
//      earliest-deadline-first.
//
// Cache admission: only deadline-INDEPENDENT results are stored — the
// solve must have run with NO deadline (under a deadline even a
// kComplete-terminated winner is suspect: which robust-chain stage won is
// wall-clock-dependent) and terminated complete/optimal (deterministic by
// the contract) or memory-cap (deterministic at a fixed configuration).
// A deadline-bounded result is served to its requester but never cached,
// so a generous-deadline client can never be poisoned by a
// stingy-deadline client's incumbent, and a cached entry is valid for
// ANY later deadline.
//
// Observability: service.* counters (requests, hits, iso hits, key memo
// hits, misses, dedup shares, solves, insert rejections) and
// service.serve/solve spans (wrbpg-obs-v1).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph.h"
#include "robust/robust_scheduler.h"
#include "schedulers/scheduler.h"
#include "util/lru.h"
#include "util/singleflight.h"
#include "util/thread_pool.h"

namespace wrbpg {

// How a response was produced.
enum class ServeSource : std::uint8_t {
  kSolved = 0,    // cold: this request ran the solver chain
  kCacheHit,      // served from cache, stored graph byte-identical
  kIsoCacheHit,   // served from cache via a verified isomorphism renaming
  kDedup,         // shared a concurrent identical request's solve
};

const char* ToString(ServeSource source);

struct ServiceRequest {
  // Borrowed; must outlive the Serve/ServeBatch call.
  const Graph* graph = nullptr;
  Weight budget = 0;
  // Per-request solve deadline; <= 0 falls back to
  // ServiceOptions::default_deadline_ms (and 0 there means unbounded).
  double deadline_ms = 0;
};

struct ServiceResponse {
  bool ok = false;     // a valid schedule was produced
  std::string error;   // infeasibility / failure detail when !ok
  // Schedule + the anytime triple (cost / lower_bound / optimality_gap /
  // termination), exactly as the winning stage reported it.
  ScheduleResult result;
  std::string winner;  // robust-chain stage that produced the schedule
  ServeSource source = ServeSource::kSolved;
  std::uint64_t key = 0;   // derived cache key
  double latency_ms = 0;   // wall time inside the service for this request
};

struct ServiceOptions {
  // Total byte budget of the schedule cache and the key memo; schedule
  // entries account their wrbpg-bin-v1 encoded graph + schedule size plus
  // the stored labeling, and the memo holds 1/kKeyMemoShare of the
  // budget. 0 disables both.
  std::size_t cache_bytes = 64ull << 20;
  std::size_t cache_shards = 16;
  // Serve permuted isomorphs from cache by verified renaming. Off, an
  // isomorph of a cached graph is a plain miss (and re-solved).
  bool iso_hits = true;
  // Deadline applied to requests that carry none.
  double default_deadline_ms = 0;
  // Worker threads for ServeBatch dispatch; 0 = DefaultSearchThreads().
  std::size_t threads = 0;
  // Base options for cold solves (deadline_ms is overridden per request;
  // exact_force_wide_state/threads flow through for differential tests).
  RobustOptions robust;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;      // byte-identical hits
  std::uint64_t iso_hits = 0;        // isomorph-renamed hits
  std::uint64_t key_memo_hits = 0;   // keys served by the memo, not HashGraph
  std::uint64_t misses = 0;
  std::uint64_t dedup_shared = 0;    // responses served as kDedup
  std::uint64_t solves = 0;          // solver-chain executions
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_rejected = 0;  // entries larger than a shard slice
  std::uint64_t key_memo_bytes = 0;  // accounted bytes held by the key memo
};

// The key memo's share of ServiceOptions::cache_bytes is 1/kKeyMemoShare;
// the schedule cache holds the rest.
inline constexpr std::size_t kKeyMemoShare = 16;

class ScheduleService {
 public:
  explicit ScheduleService(const ServiceOptions& options = {});

  // Serves one request: cache lookup (exact, then isomorph), then a
  // single-flight deduplicated cold solve on a miss. Thread-safe.
  ServiceResponse Serve(const ServiceRequest& request);

  // Deadline-aware batching executor: identical in-batch requests
  // collapse onto one Serve, distinct ones dispatch onto the pool
  // earliest-effective-deadline-first. responses[i] answers requests[i].
  std::vector<ServiceResponse> ServeBatch(
      const std::vector<ServiceRequest>& requests);

  ServiceStats stats() const;

  // Drops every cached entry and memoized key (counters are preserved).
  void ClearCache();

  // The cache key Serve derives for (graph, budget) — exposed so tests
  // and tools can reason about collisions and iso-invariance.
  static std::uint64_t DeriveKey(const Graph& graph, Weight budget);

 private:
  struct CacheEntry;

  // DeriveKey through the key memo (step 1 above).
  std::uint64_t MemoizedKey(const Graph& graph, Weight budget);

  std::shared_ptr<const CacheEntry> Solve(const ServiceRequest& request,
                                          double deadline_ms,
                                          std::uint64_t key,
                                          std::size_t graph_bytes);

  ServiceOptions options_;
  ShardedLruCache<std::uint64_t, std::uint64_t> key_memo_;
  ShardedLruCache<std::uint64_t, CacheEntry> cache_;
  SingleFlight<std::string, CacheEntry> flights_;
  ThreadPool pool_;
  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace wrbpg
