// Shared machinery of the repository benchmark: the closed request loop,
// output verification tally, the traced run's span recorder, and the
// metric report (README.md has the metric glossary).
//
// Every workload is one client in a closed loop over a fixed,
// seed-determined request list that repeats in cycles. A request's timed
// span covers only the public calls a user makes (decode + Serve, or
// decode + Explore); verification and tracing work happen outside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "schedulers/scheduler.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Command-line settings.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // spans file written by the traced run
  // Self-test hooks: a much smaller request list, and a corruption applied
  // to responses before verification ("cost", "move" or "repeat").
  bool tiny = false;
  std::string tamper;
};

// Counts failed output checks; the first few are described on stderr.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t failed_ = 0;
};

// One recorded span of the traced run. Inline spans bracket the calls the
// request itself made; re-timed spans re-execute one public call on the
// same inputs after the request finished and hang under the inline span
// whose time they explain.
struct Span {
  std::uint64_t request = 0;
  std::int64_t parent = -1;  // index of the parent span; -1 for a root
  std::string name;
  double start_ms = 0;  // since the trace was created
  double duration_ms = 0;
  bool retimed = false;
};

// In-memory span list plus named counts, written out once at the end.
class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  std::int64_t Add(std::uint64_t request, std::int64_t parent,
                   std::string name, Clock::time_point start,
                   Clock::time_point end, bool retimed);
  // A span whose duration was measured by the program itself (e.g. a
  // robust-chain stage's elapsed_ms); it starts where its parent starts.
  std::int64_t AddMeasured(std::uint64_t request, std::int64_t parent,
                           std::string name, double duration_ms);
  // Re-executes fn and records it as a re-timed child of `parent`.
  template <typename Fn>
  std::int64_t Time(std::uint64_t request, std::int64_t parent,
                    std::string name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    return Add(request, parent, std::move(name), start, Clock::now(), true);
  }

  void Count(const std::string& name, double value) { counts_[name] += value; }
  double count(const std::string& name) const;

  // Sum of the durations of every span with this name.
  double TotalMs(std::string_view name) const;
  // Sum over spans named `name` of their duration minus their children's.
  double SelfMs(std::string_view name) const;
  // Sum of durations of spans named `child` whose parent is named `parent`.
  double ChildMs(std::string_view parent, std::string_view child) const;
  // Root span time, and the part of it not covered by leaf spans.
  double RootMs() const;
  double UnattributedMs() const;

  // One JSON object per line: request, id, parent, name, start/duration.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

// The host's speed, from reference work that shares no code with wrbpg
// (README.md, "Host speed"). The VMs this benchmark runs on slow down by up
// to about 2x for minutes at a time when other guests load the physical
// host. Every time the benchmark reports is divided by the ratio (Ratio()
// per request, RunRatio() for set-up and per-layer times), so that it reads
// as time on a host running at reference speed, and every request deadline
// is multiplied by it.
class HostSpeed {
 public:
  // What the reference work takes at reference speed: about its time
  // between requests on a 2.1-GHz Xeon VM core when the host was least
  // loaded.
  static constexpr double kReferenceMs = 1.6;

  // Runs the reference work once, untimed, to fault in its buffers.
  HostSpeed();
  // Runs the reference work once and records its time.
  void Sample();
  // How much slower than reference speed the host runs now: the median of
  // the last few samples over kReferenceMs; 1 before the first sample.
  double Ratio() const;
  // The same over every sample of the run.
  double RunRatio() const;
  std::size_t samples() const { return samples_ms_.size(); }

 private:
  static constexpr std::size_t kWindow = 9;
  double RunReference();

  std::vector<std::uint64_t> table_;
  std::vector<std::uint32_t> values_;
  std::vector<double> samples_ms_;
  std::uint64_t checksum_ = 0;  // keeps the reference work observable
};

// Ratio() of the running benchmark's HostSpeed; 1 outside a run.
double HostRatio();

// What one request contributes to the end-to-end means.
struct Outcome {
  double latency_ms = 0;  // the timed span, wall-clock
  double cost = 0;        // Def 2.2 cost of the answer (explore: summed)
  double gap = 0;         // certified gap (explore: summed)
  double answers = 1;     // answers the sums cover (explore: points)
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the inputs from the seed, builds the long-lived objects and
  // warms them: everything up to the first timed request. Called several
  // times per run, each time on a fresh instance.
  virtual void Setup(Checks& checks) = 0;
  // Requests in one cycle of the seed-determined list.
  virtual std::size_t CycleSize() const = 0;
  // Runs untimed before each cycle.
  virtual void BeginCycle() {}
  // Serves request `index` of the cycle and verifies the response
  // (untimed). With a trace, also records its spans and counts.
  virtual Outcome Serve(std::size_t index, std::uint64_t id, Trace* trace,
                        Checks& checks) = 0;
  // Per-layer values only the workload can compute, from its traced run.
  virtual void LayerMetrics(std::map<std::string, double>& /*layers*/) {}
  // Checks deferred until every timed request ran and peak_rss_mb was
  // read; each failure counts as one failed request.
  virtual void Finish(Checks& /*checks*/) {}
};

// Helpers for request generation and checks.

// Graph structures (random layered CDAGs, budget slacks) are drawn from
// this fixed stream, not from --seed: with structures redrawn per seed,
// the mean solve time of a 240-request exact-cold cycle moved 12-19% from
// seed to seed, which would hide any real change. The seed draws every
// node labeling and the request order, so each seed still sends its own
// bytes, answers and tie-breaks.
inline constexpr std::uint64_t kStructureSeed = 0x57a7e5eedULL;

// A builtin spec ("dwt:64,5"), or "random:LAYERS,WIDTH": a random layered
// CDAG drawn from rng with 8-32-bit weights.
wrbpg::Graph BuildShape(const std::string& spec, wrbpg::Rng& rng);
// Relabels the graph by a seeded permutation and drops node names: the
// same instance as a user with their own numbering would send it.
wrbpg::Graph Relabel(const wrbpg::Graph& graph, wrbpg::Rng& rng);
// Seeded Fisher-Yates shuffle (identical on every standard library).
template <typename T>
void Shuffle(std::vector<T>& items, wrbpg::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}
// Applies the self-test corruption, if any, to a response before checks.
// "cost" and "move" corrupt every answer; "repeat" swaps every answer but
// a request's first (`repeat` set) for a different valid schedule,
// Belady's, that claims to be optimal.
void Tamper(const Settings& settings, const wrbpg::Graph& graph,
            wrbpg::Weight budget, bool repeat, wrbpg::ScheduleResult& result);
// Simulator check of a returned schedule: valid, and the claimed cost is
// the simulated one. Also enforces lower_bound <= cost.
void CheckSchedule(const wrbpg::Graph& graph, wrbpg::Weight budget,
                   const wrbpg::ScheduleResult& result, const std::string& what,
                   Checks& checks);
// The first answer to one distinct request, which every later answer to
// it must reproduce.
struct FirstAnswer {
  bool seen = false;
  bool passed = false;  // it passed CheckSchedule
  wrbpg::ScheduleResult result;
};
// The first answer to a request gets CheckSchedule. Every later answer must
// equal it in cost, lower bound and every move (the determinism contract);
// it fails when it differs, or when the first answer failed.
void CheckRepeatable(const wrbpg::Graph& graph, wrbpg::Weight budget,
                     const wrbpg::ScheduleResult& result,
                     const std::string& what, FirstAnswer& first,
                     Checks& checks);
double Percentile(std::vector<double> values, double p);

// Sets up (several times, fresh each time), runs the closed loop, and
// prints the result line; returns the exit code.
int RunBenchmark(const Settings& settings,
                 const std::function<std::unique_ptr<Workload>()>& make);

// The four workloads, one file each.
std::unique_ptr<Workload> MakeServeRecurring(const Settings& settings);
std::unique_ptr<Workload> MakeExactCold(const Settings& settings);
std::unique_ptr<Workload> MakeDeadlineLarge(const Settings& settings);
std::unique_ptr<Workload> MakeExploreSweep(const Settings& settings);

}  // namespace perfbench
