// ScheduleService (src/service/): cache determinism across threads and
// state representation, single-flight dedup, isomorph hits, byte-budget
// eviction, batch dispatch, and the deadline admission policy.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/simulator.h"
#include "dataflows/builtin_spec.h"
#include "service/service.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

Graph BuiltinOrDie(const std::string& spec) {
  BuiltinGraph built = BuildBuiltinGraph(spec);
  EXPECT_TRUE(built.ok) << spec << ": " << built.error;
  return built.graph();
}

// A cache hit must be bit-identical to a cold solve, and the cold solve
// itself must be independent of thread count and state representation —
// the two determinism contracts composed. Sweep threads {1, 2, 8} ×
// {packed, wide}: every cold response and every subsequent hit must
// carry the same schedule bytes, cost, and bound.
TEST(ScheduleService, CacheHitsBitIdenticalAcrossThreadsAndRepresentation) {
  const Graph graph = BuiltinOrDie("random:3,4,7");
  const Weight budget = MinValidBudget(graph) + 8;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;

  std::string reference_bytes;
  Weight reference_cost = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const bool wide : {false, true}) {
      ServiceOptions options;
      options.robust.threads = threads;
      options.robust.exact_force_wide_state = wide;
      ScheduleService service(options);

      const ServiceResponse cold = service.Serve(request);
      ASSERT_TRUE(cold.ok);
      EXPECT_EQ(cold.source, ServeSource::kSolved);
      const std::string cold_bytes = ToBinary(cold.result.schedule);
      if (reference_bytes.empty()) {
        reference_bytes = cold_bytes;
        reference_cost = cold.result.cost;
      }
      EXPECT_EQ(cold_bytes, reference_bytes)
          << "threads=" << threads << " wide=" << wide;
      EXPECT_EQ(cold.result.cost, reference_cost);

      const ServiceResponse hit = service.Serve(request);
      ASSERT_TRUE(hit.ok);
      EXPECT_EQ(hit.source, ServeSource::kCacheHit);
      EXPECT_EQ(ToBinary(hit.result.schedule), cold_bytes);
      EXPECT_EQ(hit.result.cost, cold.result.cost);
      EXPECT_EQ(hit.result.lower_bound, cold.result.lower_bound);
      EXPECT_EQ(hit.result.termination, cold.result.termination);
      EXPECT_EQ(hit.winner, cold.winner);
    }
  }
}

TEST(ScheduleService, SingleFlightCollapsesConcurrentIdenticalRequests) {
  const Graph graph = BuiltinOrDie("random:4,4,21");
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;

  constexpr std::size_t kThreads = 8;
  std::vector<ServiceResponse> responses(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ServiceRequest request;
        request.graph = &graph;
        request.budget = budget;
        responses[t] = service.Serve(request);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Exactly one solver-chain execution, however the 8 interleave (flight
  // followers and post-completion cache hits are both fine).
  EXPECT_EQ(service.stats().solves, 1u);
  const std::string expected = ToBinary(responses[0].result.schedule);
  for (const ServiceResponse& response : responses) {
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(ToBinary(response.result.schedule), expected);
  }
}

TEST(ScheduleService, ServesPermutedIsomorphsFromCache) {
  const Graph graph = BuiltinOrDie("random:3,4,9");
  const Graph permuted = testing::PermuteGraph(graph, 0xabcd);
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;

  ServiceRequest request;
  request.graph = &graph;
  request.budget = budget;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.source, ServeSource::kSolved);

  ServiceRequest iso_request;
  iso_request.graph = &permuted;
  iso_request.budget = budget;
  const ServiceResponse iso = service.Serve(iso_request);
  ASSERT_TRUE(iso.ok);
  EXPECT_EQ(iso.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(iso.result.cost, cold.result.cost);
  EXPECT_EQ(iso.key, cold.key);
  // The renamed schedule is valid for the REQUEST's labeling.
  const SimResult sim = Simulate(permuted, budget, iso.result.schedule);
  EXPECT_TRUE(sim.valid);
  EXPECT_EQ(sim.cost, cold.result.cost);
  EXPECT_EQ(service.stats().iso_hits, 1u);
  EXPECT_EQ(service.stats().solves, 1u);

  // With iso hits disabled the permuted request is a plain miss.
  ServiceOptions no_iso;
  no_iso.iso_hits = false;
  ScheduleService strict(no_iso);
  ASSERT_TRUE(strict.Serve(request).ok);
  const ServiceResponse strict_iso = strict.Serve(iso_request);
  ASSERT_TRUE(strict_iso.ok);
  EXPECT_EQ(strict_iso.source, ServeSource::kSolved);
  EXPECT_EQ(strict.stats().solves, 2u);
}

TEST(ScheduleService, DeriveKeyIsIsoInvariant) {
  const Graph graph = BuiltinOrDie("random:3,4,9");
  const Graph permuted = testing::PermuteGraph(graph, 0x1234);
  EXPECT_EQ(ScheduleService::DeriveKey(graph, 64),
            ScheduleService::DeriveKey(permuted, 64));
  EXPECT_NE(ScheduleService::DeriveKey(graph, 64),
            ScheduleService::DeriveKey(graph, 65));
}

TEST(ScheduleService, DeadlineBoundedResultsAreNeverCached) {
  const Graph graph = BuiltinOrDie("random:3,4,11");
  ServiceRequest request;
  request.graph = &graph;
  request.budget = MinValidBudget(graph) + 8;
  request.deadline_ms = 50;
  ScheduleService service;
  const ServiceResponse first = service.Serve(request);
  ASSERT_TRUE(first.ok);  // anytime contract: always an incumbent
  EXPECT_EQ(service.stats().cache_entries, 0u);
  // The same request again re-solves: nothing was admitted.
  const ServiceResponse second = service.Serve(request);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(service.stats().solves, 2u);
}

TEST(ScheduleService, InfeasibleVerdictsAreCachedToo) {
  const Graph graph = BuiltinOrDie("random:2,3,5");
  ServiceRequest request;
  request.graph = &graph;
  request.budget = 1;  // below any node weight: provably infeasible
  ScheduleService service;
  const ServiceResponse cold = service.Serve(request);
  EXPECT_FALSE(cold.ok);
  EXPECT_FALSE(cold.error.empty());
  const ServiceResponse hit = service.Serve(request);
  EXPECT_FALSE(hit.ok);
  EXPECT_EQ(hit.source, ServeSource::kCacheHit);
  EXPECT_EQ(service.stats().solves, 1u);
}

// The `!ok` isomorph branch: an infeasible verdict transfers to a
// permuted isomorph, which is then answered from the cache, not re-solved.
TEST(ScheduleService, InfeasibleVerdictTransfersToPermutedIsomorph) {
  const Graph graph = BuiltinOrDie("random:2,3,5");
  const Graph permuted = testing::PermuteGraph(graph, 0x1f00u);
  ASSERT_FALSE(permuted == graph);
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = 1;  // below any node weight: provably infeasible
  const ServiceResponse cold = service.Serve(request);
  ASSERT_FALSE(cold.ok);
  EXPECT_EQ(cold.source, ServeSource::kSolved);

  request.graph = &permuted;
  const ServiceResponse iso = service.Serve(request);
  EXPECT_FALSE(iso.ok);
  EXPECT_EQ(iso.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(iso.error, cold.error);
  EXPECT_EQ(service.stats().iso_hits, 1u);
  EXPECT_EQ(service.stats().solves, 1u);
}

// An admitted entry keeps its graph's labeling (4 bytes per node) and
// accounts for it, on top of the encoded graph and schedule.
TEST(ScheduleService, AdmittedEntryBytesIncludeItsLabeling) {
  const Graph graph = BuiltinOrDie("kary:2,7");
  ASSERT_GE(graph.num_nodes(), 200u);
  ScheduleService service;
  ServiceRequest request;
  request.graph = &graph;
  request.budget = MinValidBudget(graph) + 16;
  const ServiceResponse cold = service.Serve(request);
  ASSERT_TRUE(cold.ok);
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.cache_entries, 1u);
  EXPECT_GE(stats.cache_bytes,
            ToBinary(graph).size() + ToBinary(cold.result.schedule).size() +
                graph.num_nodes() * sizeof(std::uint32_t));
}

TEST(ScheduleService, EvictsByByteBudget) {
  ServiceOptions options;
  options.cache_bytes = 4096;
  options.cache_shards = 1;
  ScheduleService service(options);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph graph = BuiltinOrDie("random:2,3," + std::to_string(seed));
    ServiceRequest request;
    request.graph = &graph;
    request.budget = MinValidBudget(graph) + 8;
    const ServiceResponse response = service.Serve(request);
    ASSERT_TRUE(response.ok) << "seed " << seed;
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LT(stats.cache_entries, 12u);
  EXPECT_LE(stats.cache_bytes, 4096u);
}

TEST(ScheduleService, ServeBatchCollapsesDuplicatesAndMapsByIndex) {
  const Graph a = BuiltinOrDie("random:3,4,31");
  const Graph b = BuiltinOrDie("random:3,4,32");
  const Weight budget_a = MinValidBudget(a) + 8;
  const Weight budget_b = MinValidBudget(b) + 8;

  std::vector<ServiceRequest> requests(4);
  requests[0].graph = &a;
  requests[0].budget = budget_a;
  requests[1].graph = &b;
  requests[1].budget = budget_b;
  requests[2].graph = &a;
  requests[2].budget = budget_a;  // duplicate of [0]
  requests[3].graph = nullptr;    // malformed
  requests[3].budget = 64;

  ScheduleService service;
  const std::vector<ServiceResponse> responses = service.ServeBatch(requests);
  ASSERT_EQ(responses.size(), 4u);
  ASSERT_TRUE(responses[0].ok);
  ASSERT_TRUE(responses[1].ok);
  ASSERT_TRUE(responses[2].ok);
  EXPECT_FALSE(responses[3].ok);
  EXPECT_FALSE(responses[3].error.empty());

  EXPECT_EQ(responses[2].source, ServeSource::kDedup);
  EXPECT_EQ(ToBinary(responses[2].result.schedule),
            ToBinary(responses[0].result.schedule));
  EXPECT_NE(ToBinary(responses[1].result.schedule),
            ToBinary(responses[0].result.schedule));
  EXPECT_EQ(service.stats().solves, 2u);
  EXPECT_GE(service.stats().dedup_shared, 1u);
}

// Strips node names: the same weights and edges under the same ids.
Graph Unnamed(const Graph& graph) {
  GraphBuilder builder;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    builder.AddNode(graph.weight(v));
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId c : graph.children(v)) builder.AddEdge(v, c);
  }
  return builder.BuildOrDie();
}

TEST(ScheduleService, NameOnlyDifferenceIsAnIsoHit) {
  // Names are part of a graph's bytes but not of its key: a request that
  // differs from the cached graph only in names is not the same graph, so
  // it is served through the verified renaming (the identity), not as a
  // byte-identical hit.
  const Graph named = BuiltinOrDie("dwt:8,2");
  ASSERT_FALSE(named.name(0).empty());
  const Graph bare = Unnamed(named);
  const Weight budget = MinValidBudget(named) + 8;
  ScheduleService service;
  const ServiceResponse cold = service.Serve({&named, budget, 0});
  ASSERT_TRUE(cold.ok);
  const ServiceResponse hit = service.Serve({&bare, budget, 0});
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(hit.key, cold.key);
  EXPECT_EQ(hit.result.cost, cold.result.cost);
  EXPECT_TRUE(Simulate(bare, budget, hit.result.schedule).valid);
  EXPECT_EQ(service.stats().solves, 1u);
}

TEST(ScheduleService, RepeatedLabelingHitsTheKeyMemo) {
  const Graph graph = BuiltinOrDie("random:3,4,9");
  const Graph permuted = testing::PermuteGraph(graph, 0x77);
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;

  const ServiceResponse cold = service.Serve({&graph, budget, 0});
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(service.stats().key_memo_hits, 0u);
  const ServiceResponse repeat = service.Serve({&graph, budget, 0});
  ASSERT_TRUE(repeat.ok);
  EXPECT_EQ(service.stats().key_memo_hits, 1u);
  EXPECT_EQ(repeat.source, ServeSource::kCacheHit);
  EXPECT_EQ(repeat.key, cold.key);
  EXPECT_EQ(ToBinary(repeat.result.schedule), ToBinary(cold.result.schedule));
  EXPECT_EQ(repeat.result.cost, cold.result.cost);
  EXPECT_EQ(repeat.result.lower_bound, cold.result.lower_bound);
  EXPECT_EQ(repeat.result.termination, cold.result.termination);
  EXPECT_EQ(repeat.winner, cold.winner);

  // A new labeling hashes once, then repeats from the memo too; another
  // budget is another memo entry.
  const ServiceResponse iso = service.Serve({&permuted, budget, 0});
  ASSERT_TRUE(iso.ok);
  EXPECT_EQ(service.stats().key_memo_hits, 1u);
  const ServiceResponse iso_repeat = service.Serve({&permuted, budget, 0});
  EXPECT_EQ(service.stats().key_memo_hits, 2u);
  EXPECT_EQ(iso_repeat.source, ServeSource::kIsoCacheHit);
  EXPECT_EQ(ToBinary(iso_repeat.result.schedule),
            ToBinary(iso.result.schedule));
  EXPECT_EQ(iso_repeat.key, iso.key);
  const ServiceResponse other = service.Serve({&graph, budget + 1, 0});
  EXPECT_EQ(other.source, ServeSource::kSolved);
  EXPECT_EQ(service.stats().key_memo_hits, 2u);
  EXPECT_EQ(service.stats().solves, 2u);
}

TEST(ScheduleService, KeyMemoStaysWithinItsByteShare) {
  ServiceOptions options;
  options.cache_bytes = 64 << 10;
  options.cache_shards = 1;
  ScheduleService service(options);
  const Graph graph = BuiltinOrDie("random:2,3,5");
  const Weight budget = MinValidBudget(graph) + 8;
  ASSERT_TRUE(service.Serve({&graph, budget, 0}).ok);
  // Each relabeling is a distinct labeling with its own memo entry.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Graph permuted = testing::PermuteGraph(graph, seed);
    const ServiceResponse response = service.Serve({&permuted, budget, 0});
    ASSERT_TRUE(response.ok) << "seed " << seed;
    EXPECT_NE(response.source, ServeSource::kSolved) << "seed " << seed;
    EXPECT_LE(service.stats().key_memo_bytes,
              options.cache_bytes / kKeyMemoShare);
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.key_memo_bytes, 0u);
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_LE(stats.cache_bytes + stats.key_memo_bytes, options.cache_bytes);
}

TEST(ScheduleService, ClearCacheEmptiesTheKeyMemo) {
  const Graph graph = BuiltinOrDie("random:3,4,11");
  const Weight budget = MinValidBudget(graph) + 8;
  ScheduleService service;
  ASSERT_TRUE(service.Serve({&graph, budget, 0}).ok);
  ASSERT_TRUE(service.Serve({&graph, budget, 0}).ok);
  ASSERT_EQ(service.stats().key_memo_hits, 1u);
  ASSERT_GT(service.stats().key_memo_bytes, 0u);

  service.ClearCache();
  EXPECT_EQ(service.stats().key_memo_bytes, 0u);
  EXPECT_EQ(service.stats().cache_entries, 0u);
  const ServiceResponse again = service.Serve({&graph, budget, 0});
  EXPECT_EQ(again.source, ServeSource::kSolved);
  EXPECT_EQ(service.stats().key_memo_hits, 1u);
}

TEST(ScheduleService, ConcurrentRepeatedAndDistinctLabelings) {
  // Eight threads serve the same two graphs under repeated and fresh
  // labelings at once: the memo, the cache and the flights are shared.
  const std::vector<Graph> bases = {BuiltinOrDie("random:3,4,41"),
                                    BuiltinOrDie("kary:2,3")};
  std::vector<Weight> budgets;
  std::vector<std::vector<Graph>> labelings(bases.size());
  for (std::size_t b = 0; b < bases.size(); ++b) {
    budgets.push_back(MinValidBudget(bases[b]) + 8);
    labelings[b].push_back(bases[b]);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      labelings[b].push_back(testing::PermuteGraph(bases[b], seed));
    }
  }
  ScheduleService service;
  std::vector<Weight> costs;
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const ServiceResponse cold = service.Serve({&bases[b], budgets[b], 0});
    ASSERT_TRUE(cold.ok);
    costs.push_back(cold.result.cost);
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequests = 40;
  std::vector<std::vector<ServiceResponse>> responses(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kRequests; ++i) {
          const std::size_t b = (t + i) % bases.size();
          // Every other request repeats the base labeling; the rest walk
          // the relabelings in a per-thread order.
          const std::size_t l = i % 2 == 0 ? 0 : 1 + (t * 3 + i) % 6;
          responses[t].push_back(
              service.Serve({&labelings[b][l], budgets[b], 0}));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      const std::size_t b = (t + i) % bases.size();
      const std::size_t l = i % 2 == 0 ? 0 : 1 + (t * 3 + i) % 6;
      const ServiceResponse& response = responses[t][i];
      ASSERT_TRUE(response.ok);
      EXPECT_EQ(response.source, l == 0 ? ServeSource::kCacheHit
                                        : ServeSource::kIsoCacheHit);
      EXPECT_EQ(response.result.cost, costs[b]);
      EXPECT_TRUE(
          Simulate(labelings[b][l], budgets[b], response.result.schedule)
              .valid);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.solves, bases.size());
  // 14 labelings hash at most once each per thread that races on them.
  EXPECT_GE(stats.key_memo_hits, kThreads * kRequests - 14 * kThreads);
}

TEST(ScheduleService, RejectsMalformedRequests) {
  ScheduleService service;
  ServiceRequest no_graph;
  no_graph.budget = 64;
  EXPECT_FALSE(service.Serve(no_graph).ok);

  const Graph graph = BuiltinOrDie("random:2,3,5");
  ServiceRequest no_budget;
  no_budget.graph = &graph;
  no_budget.budget = 0;
  const ServiceResponse response = service.Serve(no_budget);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.stats().solves, 0u);
}

}  // namespace
}  // namespace wrbpg
