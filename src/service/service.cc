#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "core/binio.h"
#include "core/simulator.h"
#include "ganalysis/canonical.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace wrbpg {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t Mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Fingerprint of one labeling of (graph, budget): exactly what DeriveKey
// reads (names are not keyed). Each fold is a bijection of the running
// state, so two inputs that differ in a single word never collide. Any
// other collision only sends a request to the wrong cache entry, which
// Serve's verification then refuses.
std::uint64_t Fingerprint(const Graph& graph, Weight budget) {
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = static_cast<std::uint64_t>(budget);
  auto fold = [&h](std::uint64_t word) { h = (h ^ word) * kOdd; };
  fold(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    fold(static_cast<std::uint64_t>(graph.weight(v)));
    const auto children = graph.children(v);
    fold(children.size());
    for (const NodeId c : children) fold(c);
  }
  return Mix64(h);
}

// Accounted size of one key memo entry: its LRU list node, index node and
// bucket, and the shared value, on a 64-bit standard library.
constexpr std::size_t kKeyMemoEntryBytes = 160;

// Only deadline-independent results may enter the cache. A solve that ran
// under ANY deadline is suspect even when the winning stage itself reports
// kComplete — which stage won the robust chain is wall-clock-dependent
// once a deadline truncates the exact stage — so admission requires the
// solve to have run unbounded AND a deterministic termination: complete
// and optimal results are pure functions of (graph, budget) by the
// determinism contract, and a memory-cap stop is deterministic for a
// fixed configuration.
bool CacheAdmissible(double deadline_ms, const ScheduleResult& result) {
  if (deadline_ms > 0) return false;
  switch (result.termination) {
    case Termination::kComplete:
    case Termination::kOptimal:
    case Termination::kMemoryCap:
      return true;
    case Termination::kDeadline:
    case Termination::kCancelled:
      return false;
  }
  return false;
}

}  // namespace

const char* ToString(ServeSource source) {
  switch (source) {
    case ServeSource::kSolved: return "solved";
    case ServeSource::kCacheHit: return "cache-hit";
    case ServeSource::kIsoCacheHit: return "iso-cache-hit";
    case ServeSource::kDedup: return "dedup";
  }
  return "unknown";
}

// One cached (or in-flight) answer. The stored graph and budget pin what
// the result was solved for: structural equality with the request decides
// direct hits, and the stored graph, with its labeling, anchors
// isomorphism renaming for permuted requests.
struct ScheduleService::CacheEntry {
  bool ok = false;          // the solve produced a valid schedule
  std::string error;        // infeasibility detail when !ok
  Graph graph;              // the solved labeling
  // IsomorphismLabeling(graph), computed once at admission when iso hits
  // are on, so an isomorph hit labels only the request.
  std::vector<std::uint32_t> labeling;
  Weight budget = 0;
  ScheduleResult result;
  std::string winner;
  std::size_t accounted_bytes = 0;
};

ScheduleService::ScheduleService(const ServiceOptions& options)
    : options_(options),
      key_memo_(options.cache_bytes / kKeyMemoShare, options.cache_shards),
      cache_(options.cache_bytes - options.cache_bytes / kKeyMemoShare,
             options.cache_shards),
      pool_(ResolveThreadCount(options.threads)) {}

std::uint64_t ScheduleService::DeriveKey(const Graph& graph, Weight budget) {
  // Iso-invariant graph identity folded with the budget. Engine, thread
  // count, and deadline are deliberately excluded — see service.h.
  const std::uint64_t graph_hash = HashGraph(graph);
  return Mix64(graph_hash ^ Mix64(static_cast<std::uint64_t>(budget) +
                                  0x9e3779b97f4a7c15ULL));
}

std::uint64_t ScheduleService::MemoizedKey(const Graph& graph,
                                           Weight budget) {
  if (options_.cache_bytes == 0) return DeriveKey(graph, budget);
  const std::uint64_t fingerprint = Fingerprint(graph, budget);
  if (const auto key = key_memo_.Get(fingerprint)) {
    static const obs::Counter memo_hits("service.key_memo_hits");
    memo_hits.Add(1);
    const std::scoped_lock lock(stats_mu_);
    ++stats_.key_memo_hits;
    return *key;
  }
  const std::uint64_t key = DeriveKey(graph, budget);
  key_memo_.Put(fingerprint, std::make_shared<const std::uint64_t>(key),
                kKeyMemoEntryBytes);
  return key;
}

std::shared_ptr<const ScheduleService::CacheEntry> ScheduleService::Solve(
    const ServiceRequest& request, double deadline_ms, std::uint64_t key,
    std::size_t graph_bytes) {
  const obs::ScopedSpan span("service.solve");
  static const obs::Counter solves("service.solves");
  solves.Add(1);
  {
    const std::scoped_lock lock(stats_mu_);
    ++stats_.solves;
  }

  RobustOptions robust = options_.robust;
  robust.deadline_ms = deadline_ms;
  const RobustResult solved =
      RobustScheduler(*request.graph).Run(request.budget, robust);

  auto entry = std::make_shared<CacheEntry>();
  entry->graph = *request.graph;
  entry->budget = request.budget;
  entry->result = solved.result;
  entry->winner = solved.winner;
  entry->ok = solved.result.feasible;
  if (!entry->ok) {
    entry->error = "infeasible: no stage produced a valid schedule under " +
                   std::to_string(request.budget) + " bits";
  }
  const std::string schedule_bin = ToBinary(entry->result.schedule);
  entry->accounted_bytes =
      graph_bytes + schedule_bin.size() + sizeof(CacheEntry);

  if (options_.cache_bytes > 0 && CacheAdmissible(deadline_ms, entry->result)) {
    if (options_.iso_hits) {
      entry->labeling = IsomorphismLabeling(entry->graph);
      entry->accounted_bytes += entry->labeling.size() * sizeof(std::uint32_t);
    }
    static const obs::Counter inserts("service.cache_inserts");
    static const obs::Counter rejected("service.cache_insert_rejected");
    if (cache_.Put(key, entry, entry->accounted_bytes)) {
      inserts.Add(1);
    } else {
      rejected.Add(1);
    }
  }
  return entry;
}

ServiceResponse ScheduleService::Serve(const ServiceRequest& request) {
  const obs::ScopedSpan span("service.serve");
  static const obs::Counter requests("service.requests");
  static const obs::Counter hits("service.cache_hits");
  static const obs::Counter iso_hits("service.cache_hits_iso");
  static const obs::Counter misses("service.cache_misses");
  static const obs::Counter dedups("service.dedup_shared");
  requests.Add(1);
  const Clock::time_point start = Clock::now();

  ServiceResponse response;
  {
    const std::scoped_lock lock(stats_mu_);
    ++stats_.requests;
  }
  if (request.graph == nullptr || request.budget <= 0) {
    response.error = "malformed request: graph and a positive budget are "
                     "required";
    response.latency_ms = MsSince(start);
    return response;
  }

  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  const std::uint64_t key = MemoizedKey(*request.graph, request.budget);
  response.key = key;

  auto respond_from = [&](const std::shared_ptr<const CacheEntry>& entry,
                          ServeSource source) {
    response.ok = entry->ok;
    response.error = entry->error;
    response.result = entry->result;
    response.winner = entry->winner;
    response.source = source;
    response.latency_ms = MsSince(start);
    return response;
  };

  if (options_.cache_bytes > 0) {
    const auto entry = cache_.Get(key);
    // A different budget under the same key is a collision: a miss.
    if (entry != nullptr && entry->budget == request.budget) {
      if (entry->graph == *request.graph) {
        hits.Add(1);
        const std::scoped_lock lock(stats_mu_);
        ++stats_.cache_hits;
        return respond_from(entry, ServeSource::kCacheHit);
      }
      // Same iso-invariant key, different structure: either a permuted
      // isomorph (serve by verified renaming) or a genuine hash
      // collision (fall through to a cold solve). The entry carries its
      // graph's labeling, so only the request is labeled.
      const auto map =
          options_.iso_hits
              ? FindIsomorphism(entry->graph, entry->labeling, *request.graph)
              : std::nullopt;
      if (map && !entry->ok) {
        // Infeasibility transfers across isomorphism: permuting node ids
        // changes no weight and no budget.
        iso_hits.Add(1);
        const std::scoped_lock lock(stats_mu_);
        ++stats_.iso_hits;
        return respond_from(entry, ServeSource::kIsoCacheHit);
      }
      if (map) {
        std::vector<Move> moves = entry->result.schedule.moves();
        for (Move& move : moves) move.node = (*map)[move.node];
        ScheduleResult renamed = entry->result;
        renamed.schedule = Schedule(std::move(moves));
        // The renaming is provably cost-preserving, but the serve path
        // re-verifies anyway: a schedule leaves the service only through
        // the simulator.
        const SimResult sim =
            Simulate(*request.graph, request.budget, renamed.schedule);
        if (sim.valid && sim.cost == entry->result.cost) {
          iso_hits.Add(1);
          {
            const std::scoped_lock lock(stats_mu_);
            ++stats_.iso_hits;
          }
          response.ok = true;
          response.result = std::move(renamed);
          response.winner = entry->winner;
          response.source = ServeSource::kIsoCacheHit;
          response.latency_ms = MsSince(start);
          return response;
        }
      }
    }
  }

  misses.Add(1);
  {
    const std::scoped_lock lock(stats_mu_);
    ++stats_.misses;
  }
  // Single-flight over the EXACT request identity (graph bytes + budget
  // + effective deadline): concurrent identical requests run one solve;
  // requests differing only in deadline stay separate flights, because
  // their anytime results legitimately differ.
  const std::string graph_bin = ToBinary(*request.graph);
  const std::string flight_key = graph_bin + '|' +
                                 std::to_string(request.budget) + '|' +
                                 std::to_string(deadline_ms);
  const auto outcome = flights_.Do(flight_key, [&] {
    return Solve(request, deadline_ms, key, graph_bin.size());
  });
  if (!outcome.leader) {
    dedups.Add(1);
    const std::scoped_lock lock(stats_mu_);
    ++stats_.dedup_shared;
  }
  return respond_from(outcome.value, outcome.leader ? ServeSource::kSolved
                                                    : ServeSource::kDedup);
}

std::vector<ServiceResponse> ScheduleService::ServeBatch(
    const std::vector<ServiceRequest>& requests) {
  const obs::ScopedSpan span("service.batch");
  std::vector<ServiceResponse> responses(requests.size());

  // Collapse identical in-batch requests onto one dispatch and order the
  // distinct solves earliest-effective-deadline-first, so the tightest
  // deadlines reach the pool before slack ones queue ahead of them.
  struct Group {
    std::vector<std::size_t> indices;  // requests answered by this solve
    double effective_deadline_ms = 0;  // 0 = unbounded, dispatched last
  };
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<Group> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequest& request = requests[i];
    std::string identity;
    if (request.graph != nullptr && request.budget > 0) {
      const double deadline_ms = request.deadline_ms > 0
                                     ? request.deadline_ms
                                     : options_.default_deadline_ms;
      identity = ToBinary(*request.graph) + '|' +
                 std::to_string(request.budget) + '|' +
                 std::to_string(deadline_ms);
      const auto [it, inserted] = group_of.emplace(identity, groups.size());
      if (inserted) {
        groups.push_back(Group{{i}, deadline_ms});
      } else {
        groups[it->second].indices.push_back(i);
      }
    } else {
      // Malformed requests answer inline (Serve produces the error).
      responses[i] = Serve(request);
    }
  }
  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double da = groups[a].effective_deadline_ms;
                     const double db = groups[b].effective_deadline_ms;
                     if ((da > 0) != (db > 0)) return da > 0;  // bounded first
                     return da < db;
                   });

  TaskGroup tasks(pool_);
  std::vector<ServiceResponse> leader(groups.size());
  for (const std::size_t g : order) {
    tasks.Submit([this, &leader, &groups, &requests, g] {
      leader[g] = Serve(requests[groups[g].indices.front()]);
    });
  }
  tasks.Wait();

  static const obs::Counter batch_dedup("service.batch_dedup_shared");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    for (std::size_t k = 0; k < group.indices.size(); ++k) {
      responses[group.indices[k]] = leader[g];
      if (k > 0) {
        // In-batch duplicates share the leader's answer without touching
        // the cache or a flight; account them like single-flight shares.
        responses[group.indices[k]].source = ServeSource::kDedup;
        batch_dedup.Add(1);
        const std::scoped_lock lock(stats_mu_);
        ++stats_.requests;
        ++stats_.dedup_shared;
      }
    }
  }
  return responses;
}

ServiceStats ScheduleService::stats() const {
  ServiceStats out;
  {
    const std::scoped_lock lock(stats_mu_);
    out = stats_;
  }
  const auto cache = cache_.stats();
  out.cache_entries = cache.entries;
  out.cache_bytes = cache.bytes;
  out.cache_evictions = cache.evictions;
  out.cache_rejected = cache.rejected;
  out.key_memo_bytes = key_memo_.stats().bytes;
  return out;
}

void ScheduleService::ClearCache() {
  cache_.Clear();
  key_memo_.Clear();
}

}  // namespace wrbpg
