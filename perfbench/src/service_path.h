// The serve path shared by the three ScheduleService workloads: decode
// wrbpg-bin-v1 bytes, Serve, and (traced run only) re-time the public
// calls that make up the path the response took.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "robust/robust_scheduler.h"
#include "service/service.h"

namespace perfbench {

// A request as it reaches the program: graph bytes, budget, deadline in ms
// at reference speed (0 = none; the wall-clock deadline is this times
// HostRatio()).
struct Request {
  std::string bytes;
  wrbpg::Weight budget = 0;
  double deadline_ms = 0;
};

struct Served {
  bool decoded = false;
  wrbpg::Graph graph;  // the decoded request graph
  wrbpg::ServiceResponse response;
  double latency_ms = 0;  // decode + Serve
};

// One long-lived service with every thread count pinned to 1.
wrbpg::ServiceOptions SingleThreadedService();

// Decodes and serves `request` inside the timed span. With a trace, records
// the inline spans (request, core.decode, service.serve) and re-times on
// the same inputs the calls Serve made on the path the response took:
// DeriveKey and ToBinary always; FindIsomorphism and Simulate on an
// isomorph hit (`stored` is the graph the cache entry was solved under);
// on a miss the robust chain, its three pre-stage calls, its stages, the
// scheduler each stage ran, and a Simulate of each schedule a stage
// returned.
Served ServeTimed(wrbpg::ScheduleService& service, const Request& request,
                  const wrbpg::Graph* stored, std::uint64_t id, Trace* trace);

}  // namespace perfbench
