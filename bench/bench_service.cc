// bench_service — recurring-request workload against ScheduleService
// (DESIGN.md §13).
//
// Production request streams repeat: the same dataflow shapes are
// scheduled over and over, often under fresh node labelings. The bench
// models that — a fixed pool of distinct graphs (seeded random layered
// CDAGs, their permuted isomorphs, and recognized builtin families) is
// cycled through N requests against one shared service — and reports:
//
//   * cache hit rate (byte-identical + isomorph hits),
//   * p50/p99 latency of cold solves vs cache-served responses and the
//     p50 speedup,
//   * single-flight / batch dedup savings (concurrent identical requests
//     through Serve, and an identical-request ServeBatch),
//   * bit-identity of cache hits against independent cold solves.
//
// Results go to BENCH_service.json (--json <path>) in the stable
// wrbpg-bench-service-v1 schema; stdout gets the human summary. Exit 1
// when an acceptance bound fails (hit rate >= 0.8, p50 speedup >= 50x,
// bit-identity) so CI can gate on it. --requests scales the stream
// (default 120, minimum 2x the pool size).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/binio.h"
#include "core/graph.h"
#include "dataflows/builtin_spec.h"
#include "obs/json.h"
#include "obs/report.h"
#include "service/service.h"
#include "tests/permute_graph.h"
#include "util/cli.h"

using namespace wrbpg;

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct Instance {
  std::string label;
  Graph graph;
  Weight budget = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.ApplyThreadsFlag();
  const std::string json_path = args.GetString("json", "BENCH_service.json");
  std::int64_t num_requests = args.GetInt("requests", 120);
  if (!args.error().empty()) {
    std::cerr << "error: " << args.error() << "\n";
    return 2;
  }

  // The request pool: three seeded random layered CDAGs (exact-stage
  // solves, milliseconds cold), permuted isomorphs of two of them, and
  // two recognized families (microsecond cold solves) — 7 distinct
  // graphs, under the acceptance ceiling of 10.
  std::vector<Instance> pool;
  const std::vector<std::string> specs = {"random:4,4,11", "random:4,4,12",
                                          "random:3,5,13", "dwt:16,3",
                                          "kary:2,3"};
  for (const std::string& spec : specs) {
    BuiltinGraph built = BuildBuiltinGraph(spec);
    if (!built.ok) {
      std::cerr << "error: " << spec << ": " << built.error << "\n";
      return 1;
    }
    Instance inst;
    inst.label = spec;
    inst.graph = built.graph();
    inst.budget = MinValidBudget(inst.graph) + 8;
    pool.push_back(std::move(inst));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    Instance iso;
    iso.label = pool[i].label + "~perm";
    iso.graph = testing::PermuteGraph(pool[i].graph, 0xfeed + i);
    iso.budget = pool[i].budget;
    pool.push_back(std::move(iso));
  }
  if (num_requests < static_cast<std::int64_t>(2 * pool.size())) {
    num_requests = static_cast<std::int64_t>(2 * pool.size());
  }

  // Phase 1: the recurring stream. Round-robin over the pool, so every
  // graph goes cold exactly once (isomorphs go "iso-warm") and every
  // revisit must be served from cache.
  ScheduleService service;
  std::vector<double> cold_ms;
  std::vector<double> cached_ms;
  for (std::int64_t r = 0; r < num_requests; ++r) {
    const Instance& inst = pool[static_cast<std::size_t>(r) % pool.size()];
    ServiceRequest request;
    request.graph = &inst.graph;
    request.budget = inst.budget;
    const ServiceResponse response = service.Serve(request);
    if (!response.ok) {
      std::cerr << "error: request " << r << " (" << inst.label
                << ") failed: " << response.error << "\n";
      return 1;
    }
    if (response.source == ServeSource::kSolved) {
      cold_ms.push_back(response.latency_ms);
    } else {
      cached_ms.push_back(response.latency_ms);
    }
  }
  const ServiceStats stream = service.stats();
  const double hit_rate =
      stream.requests == 0
          ? 0
          : static_cast<double>(stream.cache_hits + stream.iso_hits) /
                static_cast<double>(stream.requests);
  const double cold_p50 = Percentile(cold_ms, 50);
  const double cold_p99 = Percentile(cold_ms, 99);
  const double cached_p50 = Percentile(cached_ms, 50);
  const double cached_p99 = Percentile(cached_ms, 99);
  const double speedup_p50 = cached_p50 > 0 ? cold_p50 / cached_p50 : 0;

  // Phase 2: bit-identity. Every cached answer for a byte-identical
  // request must equal an independent cold solve — schedule bytes, cost,
  // bound, termination, the lot.
  bool bit_identical = true;
  for (const Instance& inst : pool) {
    ServiceRequest request;
    request.graph = &inst.graph;
    request.budget = inst.budget;
    const ServiceResponse warm = service.Serve(request);
    ServiceOptions cold_options;
    cold_options.cache_bytes = 0;  // cache disabled: always a cold solve
    ScheduleService cold_service(cold_options);
    const ServiceResponse cold = cold_service.Serve(request);
    if (warm.source == ServeSource::kCacheHit) {
      if (ToBinary(warm.result.schedule) != ToBinary(cold.result.schedule) ||
          warm.result.cost != cold.result.cost ||
          warm.result.lower_bound != cold.result.lower_bound) {
        std::cerr << "BIT-IDENTITY VIOLATION: " << inst.label << "\n";
        bit_identical = false;
      }
    } else if (warm.result.cost != cold.result.cost) {
      // Isomorph hits guarantee equal cost (verified renaming), not
      // equal bytes — the node labeling follows the request.
      std::cerr << "ISO COST MISMATCH: " << inst.label << "\n";
      bit_identical = false;
    }
  }

  // Phase 3: dedup savings. (a) Concurrent identical requests through
  // Serve on a cold service — single-flight collapses them to one solve;
  // (b) an identical-request ServeBatch — the batch executor collapses
  // them before they even reach a flight.
  const std::size_t hammer_threads = 8;
  ScheduleService flight_service;
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < hammer_threads; ++t) {
      threads.emplace_back([&] {
        ServiceRequest request;
        request.graph = &pool[0].graph;
        request.budget = pool[0].budget;
        (void)flight_service.Serve(request);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const ServiceStats flight = flight_service.stats();

  const std::size_t batch_size = 12;
  ScheduleService batch_service;
  std::vector<ServiceRequest> batch(batch_size);
  for (ServiceRequest& request : batch) {
    request.graph = &pool[1].graph;
    request.budget = pool[1].budget;
  }
  const std::vector<ServiceResponse> batch_responses =
      batch_service.ServeBatch(batch);
  const ServiceStats batched = batch_service.stats();
  bool batch_ok = batch_responses.size() == batch_size;
  for (const ServiceResponse& response : batch_responses) {
    batch_ok = batch_ok && response.ok;
  }

  const bool pass_hit_rate = hit_rate >= 0.8;
  const bool pass_speedup = speedup_p50 >= 50;
  const bool pass = pass_hit_rate && pass_speedup && bit_identical &&
                    batch_ok && flight.solves <= 1 && batched.solves <= 1;

  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "wrbpg-bench-service-v1");
  doc.Set("requests", static_cast<std::int64_t>(num_requests));
  doc.Set("distinct_graphs", static_cast<std::int64_t>(pool.size()));
  obs::Json cache = obs::Json::Object();
  cache.Set("hit_rate", hit_rate);
  cache.Set("hits", stream.cache_hits);
  cache.Set("iso_hits", stream.iso_hits);
  cache.Set("misses", stream.misses);
  cache.Set("solves", stream.solves);
  cache.Set("entries", stream.cache_entries);
  cache.Set("bytes", stream.cache_bytes);
  doc.Set("cache", std::move(cache));
  obs::Json latency = obs::Json::Object();
  latency.Set("cold_p50_ms", cold_p50);
  latency.Set("cold_p99_ms", cold_p99);
  latency.Set("cached_p50_ms", cached_p50);
  latency.Set("cached_p99_ms", cached_p99);
  latency.Set("speedup_p50", speedup_p50);
  doc.Set("latency", std::move(latency));
  obs::Json dedup = obs::Json::Object();
  dedup.Set("concurrent_requests",
            static_cast<std::int64_t>(hammer_threads));
  dedup.Set("concurrent_solves", flight.solves);
  dedup.Set("concurrent_shared", flight.dedup_shared + flight.cache_hits);
  dedup.Set("batch_requests", static_cast<std::int64_t>(batch_size));
  dedup.Set("batch_solves", batched.solves);
  dedup.Set("batch_shared", batched.dedup_shared);
  doc.Set("dedup", std::move(dedup));
  doc.Set("bit_identical", bit_identical);
  doc.Set("pass", pass);

  std::string error;
  if (!obs::WriteJsonFile(json_path, doc, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }

  std::cout << "bench_service: " << num_requests << " requests over "
            << pool.size() << " distinct graphs\n"
            << "  hit rate:      " << hit_rate * 100 << "% ("
            << stream.cache_hits << " exact + " << stream.iso_hits
            << " iso of " << stream.requests << ")\n"
            << "  cold p50/p99:  " << cold_p50 << " / " << cold_p99
            << " ms (" << cold_ms.size() << " solves)\n"
            << "  cached p50/99: " << cached_p50 << " / " << cached_p99
            << " ms (" << cached_ms.size() << " served)\n"
            << "  p50 speedup:   " << speedup_p50 << "x\n"
            << "  single-flight: " << hammer_threads << " concurrent -> "
            << flight.solves << " solve(s)\n"
            << "  batch dedup:   " << batch_size << " identical -> "
            << batched.solves << " solve(s), " << batched.dedup_shared
            << " shared\n"
            << "  bit-identical: " << (bit_identical ? "yes" : "NO") << "\n"
            << "  [json] " << json_path << "\n"
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
