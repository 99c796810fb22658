#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>

#include "core/graph_builder.h"
#include "core/simulator.h"
#include "dataflows/builtin_spec.h"
#include "dataflows/random_dag.h"
#include "schedulers/belady.h"

namespace perfbench {
namespace {

// The metric names and units BENCHMARK.json declares; a run prints exactly
// one of the two lists (end-to-end untraced, per-layer traced).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_rps", "req/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"io_cost_mean_bits", "bits"},
    {"gap_mean_bits", "bits"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<std::string> kStages = {"recognition", "exact", "belady",
                                          "greedy-topo"};

std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"core.decode_ms", "ms"},
      {"core.to_binary_ms", "ms"},
      {"core.simulate_ms", "ms"},
      {"core.simulate_moves_per_s", "1/s"},
      {"core.start_bound_ms", "ms"},
      {"ganalysis.hash_ms", "ms"},
      {"ganalysis.isomorphism_ms", "ms"},
      {"ganalysis.recognize_ms", "ms"},
      {"ganalysis.certified_bound_ms", "ms"},
      {"service.serve_ms", "ms"},
      {"service.self_ms", "ms"},
      {"service.hit_share", "share"},
      {"service.iso_hit_share", "share"},
      {"service.solves", "count"},
      {"robust.run_ms", "ms"},
      {"robust.prestage_ms", "ms"},
  };
  for (const std::string& stage : kStages) {
    names.emplace_back("robust.stage." + stage + "_ms", "ms");
  }
  for (const std::string& stage : kStages) {
    names.emplace_back("robust.winner." + stage + "_share", "share");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"robust.deadline_overrun_p90_ms", "ms"},
      {"schedulers.search_ms", "ms"},
      {"schedulers.expanded", "count"},
      {"schedulers.expanded_per_s", "1/s"},
      {"schedulers.cap_hit_share", "share"},
      {"schedulers.dp_ms", "ms"},
      {"schedulers.heuristic_ms", "ms"},
      {"explore.sweep_ms", "ms"},
      {"explore.band_ms", "ms"},
      {"explore.dominance_ms", "ms"},
      {"explore.points", "count"},
      {"explore.frontier_size", "count"},
      {"hardware.price_ms", "ms"},
      {"trace.unattributed_share", "share"},
      {"trace.overhead_ms", "ms"},
      {"trace.overhead_share", "share"},
      {"host.reference_ratio", "ratio"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Everything one closed-loop phase measured.
struct Phase {
  std::vector<double> wall_ms;    // per request, as measured
  std::vector<double> latencies;  // the same at reference speed
  // Per cycle position: summed outcome fields and how often it ran, so
  // means weight every position equally however far the last cycle got.
  std::vector<double> cost, gap, answers, runs;
  std::uint64_t failed_requests = 0;

  double MeanOf(const std::vector<double>& field) const {
    double value = 0;
    double answered = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i] == 0) continue;
      value += field[i] / runs[i];
      answered += answers[i] / runs[i];
    }
    return Ratio(value, answered);
  }
};

const HostSpeed* g_host = nullptr;  // the running benchmark's

// Reference time is sampled after every this much timed request work.
constexpr double kSampleEveryMs = 100;

// A run must end well inside three minutes whatever the verification costs.
constexpr double kWallLimitS = 150;
const Clock::time_point kProcessStart = Clock::now();

// One client, one request at a time, in whole cycles: stops at the first
// cycle boundary after `seconds` of timed request spans (0 = never), so
// every run serves the same mix; in any case at max_requests or at the
// wall-clock limit.
Phase RunPhase(Workload& workload, double seconds, std::size_t max_requests,
               Trace* trace, Checks& checks, std::uint64_t& next_id,
               HostSpeed& host) {
  const std::size_t k = workload.CycleSize();
  Phase phase;
  phase.cost.assign(k, 0);
  phase.gap.assign(k, 0);
  phase.answers.assign(k, 0);
  phase.runs.assign(k, 0);
  double timed_ms = 0;  // wall-clock
  std::size_t samples = 1;
  auto time_up = [&] { return seconds > 0 && timed_ms >= seconds * 1000; };
  for (std::size_t i = 0; i < max_requests; ++i) {
    if (MsBetween(kProcessStart, Clock::now()) > kWallLimitS * 1000) {
      std::cerr << "wall-clock limit reached after " << i << " requests\n";
      break;
    }
    const std::size_t index = i % k;
    if (index == 0) {
      if (i > 0 && time_up()) break;
      workload.BeginCycle();
    }
    const std::uint64_t failed_before = checks.failed();
    const double ratio = host.Ratio();
    const Outcome outcome = workload.Serve(index, next_id++, trace, checks);
    if (checks.failed() != failed_before) ++phase.failed_requests;
    timed_ms += outcome.latency_ms;
    phase.wall_ms.push_back(outcome.latency_ms);
    phase.latencies.push_back(outcome.latency_ms / ratio);
    if (timed_ms >= kSampleEveryMs * static_cast<double>(samples)) {
      host.Sample();
      ++samples;
    }
    phase.cost[index] += outcome.cost;
    phase.gap[index] += outcome.gap;
    phase.answers[index] += outcome.answers;
    phase.runs[index] += 1;
  }
  return phase;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0 : Sum(values) / static_cast<double>(values.size());
}

std::map<std::string, double> LayerReport(const Trace& trace, double requests,
                                          Workload& workload) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : PerLayerNames()) m[name] = 0;
  auto per_request = [&](std::string_view span) {
    return Ratio(trace.TotalMs(span), requests);
  };
  for (const char* span :
       {"core.decode", "core.to_binary", "core.simulate", "core.start_bound",
        "ganalysis.hash", "ganalysis.isomorphism", "ganalysis.recognize",
        "ganalysis.certified_bound", "service.serve", "robust.run",
        "schedulers.search", "schedulers.dp", "schedulers.heuristic",
        "explore.sweep", "explore.band", "explore.dominance",
        "hardware.price"}) {
    m[std::string(span) + "_ms"] = per_request(span);
  }
  m["core.simulate_moves_per_s"] =
      Ratio(trace.count("core.simulate.moves"),
            trace.TotalMs("core.simulate") / 1000);
  m["service.self_ms"] = Ratio(trace.SelfMs("service.serve"), requests);
  m["service.hit_share"] = Ratio(trace.count("service.hits"), requests);
  m["service.iso_hit_share"] = Ratio(trace.count("service.iso_hits"), requests);
  m["service.solves"] = Ratio(trace.count("service.solves"), requests);
  m["robust.prestage_ms"] =
      Ratio(trace.ChildMs("robust.run", "ganalysis.certified_bound") +
                trace.ChildMs("robust.run", "core.start_bound") +
                trace.ChildMs("robust.run", "ganalysis.recognize"),
            requests);
  const double runs = trace.count("robust.runs");
  for (const std::string& stage : kStages) {
    m["robust.stage." + stage + "_ms"] = per_request("robust.stage." + stage);
    m["robust.winner." + stage + "_share"] =
        Ratio(trace.count("robust.winner." + stage), runs);
  }
  m["schedulers.expanded"] =
      Ratio(trace.count("schedulers.expanded"), requests);
  m["schedulers.expanded_per_s"] =
      Ratio(trace.count("schedulers.expanded"),
            trace.TotalMs("schedulers.search") / 1000);
  m["schedulers.cap_hit_share"] = Ratio(trace.count("schedulers.cap_hits"),
                                        trace.count("schedulers.solves"));
  m["explore.points"] = Ratio(trace.count("explore.points"), requests);
  m["explore.frontier_size"] =
      Ratio(trace.count("explore.frontier_size"), requests);
  m["trace.unattributed_share"] =
      Ratio(trace.UnattributedMs(), trace.RootMs());
  workload.LayerMetrics(m);
  return m;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    if (!first) line += ", ";
    first = false;
    line += Quote(name) + ": {\"value\": " + Number(values.at(name)) +
            ", \"unit\": " + Quote(unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::cerr << "check failed: " << what << "\n";
}

std::int64_t Trace::Add(std::uint64_t request, std::int64_t parent,
                        std::string name, Clock::time_point start,
                        Clock::time_point end, bool retimed) {
  spans_.push_back(Span{request, parent, std::move(name),
                        MsBetween(epoch_, start), MsBetween(start, end),
                        retimed});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Trace::AddMeasured(std::uint64_t request, std::int64_t parent,
                                std::string name, double duration_ms) {
  const double start =
      parent >= 0 ? spans_[static_cast<std::size_t>(parent)].start_ms : 0;
  spans_.push_back(
      Span{request, parent, std::move(name), start, duration_ms, true});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Trace::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double Trace::TotalMs(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration_ms;
  }
  return total;
}

double Trace::SelfMs(std::string_view name) const {
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == name) total += span.duration_ms;
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == name) {
      total -= span.duration_ms;
    }
  }
  return total;
}

double Trace::ChildMs(std::string_view parent, std::string_view child) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == child && span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == parent) {
      total += span.duration_ms;
    }
  }
  return total;
}

double Trace::RootMs() const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.duration_ms;
  }
  return total;
}

double Trace::UnattributedMs() const {
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      has_child[static_cast<std::size_t>(span.parent)] = true;
    }
  }
  double leaves = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 && !has_child[i]) leaves += spans_[i].duration_ms;
  }
  return RootMs() - leaves;
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"request\": " << s.request << ", \"id\": " << i
        << ", \"parent\": " << s.parent << ", \"name\": " << Quote(s.name)
        << ", \"start_ms\": " << Number(s.start_ms)
        << ", \"duration_ms\": " << Number(s.duration_ms)
        << ", \"retimed\": " << (s.retimed ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

wrbpg::Graph BuildShape(const std::string& spec, wrbpg::Rng& rng) {
  if (spec.rfind("random:", 0) == 0) {
    wrbpg::RandomDagOptions options;
    options.num_layers = std::stoi(spec.substr(7));
    options.nodes_per_layer = std::stoi(spec.substr(spec.find(',') + 1));
    options.min_weight = 8;
    options.max_weight = 32;
    return wrbpg::BuildRandomDag(rng, options);
  }
  return wrbpg::BuildBuiltinGraph(spec).graph();
}

wrbpg::Graph Relabel(const wrbpg::Graph& graph, wrbpg::Rng& rng) {
  const wrbpg::NodeId n = graph.num_nodes();
  std::vector<wrbpg::NodeId> to_new(n);
  std::iota(to_new.begin(), to_new.end(), wrbpg::NodeId{0});
  Shuffle(to_new, rng);
  std::vector<wrbpg::NodeId> to_old(n);
  for (wrbpg::NodeId v = 0; v < n; ++v) to_old[to_new[v]] = v;
  wrbpg::GraphBuilder builder;
  for (wrbpg::NodeId v = 0; v < n; ++v) {
    builder.AddNode(graph.weight(to_old[v]));
  }
  for (wrbpg::NodeId v = 0; v < n; ++v) {
    for (const wrbpg::NodeId c : graph.children(v)) {
      builder.AddEdge(to_new[v], to_new[c]);
    }
  }
  return builder.BuildOrDie();
}

void Tamper(const Settings& settings, const wrbpg::Graph& graph,
            wrbpg::Weight budget, bool repeat, wrbpg::ScheduleResult& result) {
  if (settings.tamper == "cost") {
    result.cost += 1;
  } else if (settings.tamper == "move" && !result.schedule.empty()) {
    // Drop the first move (always the first load): a later move then
    // uses a pebble that was never placed.
    std::vector<wrbpg::Move> moves = result.schedule.moves();
    moves.erase(moves.begin());
    result.schedule = wrbpg::Schedule(std::move(moves));
  } else if (settings.tamper == "repeat" && repeat) {
    const wrbpg::ScheduleResult other =
        wrbpg::BeladyScheduler(graph).Run(budget);
    if (other.feasible) {
      result.schedule = other.schedule;
      result.cost = other.cost;
      result.lower_bound = other.cost;
      result.optimality_gap = 0;
      result.termination = wrbpg::Termination::kOptimal;
    }
  }
}

void CheckSchedule(const wrbpg::Graph& graph, wrbpg::Weight budget,
                   const wrbpg::ScheduleResult& result, const std::string& what,
                   Checks& checks) {
  checks.Expect(result.feasible, what + ": no schedule");
  if (!result.feasible) return;
  const wrbpg::SimResult sim = wrbpg::Simulate(graph, budget, result.schedule);
  checks.Expect(sim.valid, what + ": Simulate rejects the schedule: " +
                               sim.error);
  checks.Expect(sim.cost == result.cost,
                what + ": claimed cost " + std::to_string(result.cost) +
                    " != simulated " + std::to_string(sim.cost));
  checks.Expect(result.lower_bound <= result.cost,
                what + ": lower bound above cost");
  checks.Expect(result.optimality_gap == result.cost - result.lower_bound,
                what + ": gap != cost - lower bound");
}

void CheckRepeatable(const wrbpg::Graph& graph, wrbpg::Weight budget,
                     const wrbpg::ScheduleResult& result,
                     const std::string& what, FirstAnswer& first,
                     Checks& checks) {
  if (!first.seen) {
    const std::uint64_t before = checks.failed();
    CheckSchedule(graph, budget, result, what, checks);
    first = {true, checks.failed() == before, result};
    return;
  }
  checks.Expect(first.passed, what + ": its first answer failed its checks");
  checks.Expect(result.cost == first.result.cost &&
                    result.lower_bound == first.result.lower_bound &&
                    result.schedule.moves() == first.result.schedule.moves(),
                what + ": differs from its first answer");
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// Samples are only ever taken after program work (a set-up or a request)
// has run: back to back, the reference work finds its table still in
// cache and runs about a quarter faster.
HostSpeed::HostSpeed()
    : table_(std::size_t{1} << 17), values_(std::size_t{1} << 14) {
  (void)RunReference();
}

// Random inserts into a 1 MiB open-addressing table, then a sort of 16K
// integers: hashing, cache misses and branches, like the program's own
// work, in code no change to wrbpg can speed up.
double HostSpeed::RunReference() {
  const Clock::time_point start = Clock::now();
  std::fill(table_.begin(), table_.end(), 0);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::size_t mask = table_.size() - 1;
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t key = next() % 90000 + 1;
    auto slot = static_cast<std::size_t>(key * 0xff51afd7ed558ccdULL >> 20) &
                mask;
    while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
    checksum_ += static_cast<std::uint64_t>(table_[slot] == key);
    table_[slot] = key;
  }
  for (std::uint32_t& value : values_) {
    value = static_cast<std::uint32_t>(next());
  }
  std::sort(values_.begin(), values_.end());
  checksum_ += values_[values_.size() / 2];
  return MsBetween(start, Clock::now());
}

void HostSpeed::Sample() { samples_ms_.push_back(RunReference()); }

double HostSpeed::Ratio() const {
  if (samples_ms_.empty()) return 1;
  const std::size_t n = std::min(kWindow, samples_ms_.size());
  const std::vector<double> recent(samples_ms_.end() -
                                       static_cast<std::ptrdiff_t>(n),
                                   samples_ms_.end());
  return Percentile(recent, 50) / kReferenceMs;
}

double HostSpeed::RunRatio() const {
  return Percentile(samples_ms_, 50) / kReferenceMs;
}

double HostRatio() { return g_host != nullptr ? g_host->Ratio() : 1; }

int RunBenchmark(const Settings& settings,
                 const std::function<std::unique_ptr<Workload>()>& make) {
  Checks checks;
  HostSpeed host;
  g_host = &host;
  // Set-up is repeated and its median reported, so that one slow page
  // fault or allocator warm-up does not move setup_s; the last instance
  // serves the timed requests. Its time is scaled with the run's median
  // ratio: a sample after each set-up is one sample, too few to scale it
  // alone.
  const int setups = settings.trace ? 1 : 9;
  std::vector<double> setup_s;  // wall-clock
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = make();
    workload->Setup(checks);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000);
    host.Sample();
  }
  const std::uint64_t setup_failures = checks.failed();

  std::uint64_t next_id = 0;
  const std::size_t unlimited = std::numeric_limits<std::size_t>::max();
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  // Failed checks; reported capped at `attempted`, since one request can
  // fail several checks.
  std::uint64_t failed = setup_failures;
  if (!settings.trace) {
    const Phase phase = RunPhase(*workload, settings.seconds, unlimited,
                                 nullptr, checks, next_id, host);
    attempted = phase.latencies.size();
    failed += phase.failed_requests;
    const double n = static_cast<double>(phase.latencies.size());
    values["setup_s"] = Percentile(setup_s, 50) / host.RunRatio();
    values["throughput_rps"] = Ratio(n, Sum(phase.latencies) / 1000);
    values["latency_p50_ms"] = Percentile(phase.latencies, 50);
    values["latency_p90_ms"] = Percentile(phase.latencies, 90);
    // The same timings as measured, for comparison; stderr only.
    std::cerr << "host: reference work " << HostSpeed::kReferenceMs *
                                                host.RunRatio()
              << " ms median over " << host.samples()
              << " samples; wall-clock setup_s " << Percentile(setup_s, 50)
              << " throughput_rps " << Ratio(n, Sum(phase.wall_ms) / 1000)
              << " latency_p50_ms " << Percentile(phase.wall_ms, 50)
              << " latency_p90_ms " << Percentile(phase.wall_ms, 90) << "\n";
    values["io_cost_mean_bits"] = phase.MeanOf(phase.cost);
    values["gap_mean_bits"] = phase.MeanOf(phase.gap);
    values["peak_rss_mb"] = PeakRssMb();
    const std::uint64_t before = checks.failed();
    workload->Finish(checks);
    failed += checks.failed() - before;
    PrintResult(failed == 0, attempted, std::min(failed, attempted), kEndToEnd,
                values);
  } else {
    // Untraced half first, then the same requests traced: the latency
    // difference is the tracing overhead.
    const Phase plain = RunPhase(*workload, settings.seconds / 2, unlimited,
                                 nullptr, checks, next_id, host);
    Trace trace;
    const Phase traced = RunPhase(*workload, 0, plain.latencies.size(), &trace,
                                  checks, next_id, host);
    attempted = plain.latencies.size() + traced.latencies.size();
    failed += plain.failed_requests + traced.failed_requests;
    values = LayerReport(trace, static_cast<double>(traced.latencies.size()),
                         *workload);
    const double plain_ms = Mean(plain.wall_ms);
    values["trace.overhead_ms"] = Mean(traced.wall_ms) - plain_ms;
    values["trace.overhead_share"] =
        Ratio(values["trace.overhead_ms"], plain_ms);
    // Spans are wall-clock; report them at reference speed like the
    // end-to-end times, with the run's median ratio.
    const double ratio = host.RunRatio();
    for (const auto& [name, unit] : PerLayerNames()) {
      if (unit == "ms") values[name] /= ratio;
      if (unit == "1/s") values[name] *= ratio;
    }
    values["host.reference_ratio"] = ratio;
    const std::uint64_t before = checks.failed();
    workload->Finish(checks);
    failed += checks.failed() - before;
    if (!settings.trace_out.empty() && !trace.Write(settings.trace_out)) {
      std::cerr << "cannot write spans to " << settings.trace_out << "\n";
      ++failed;
    }
    PrintResult(failed == 0, attempted, std::min(failed, attempted),
                PerLayerNames(), values);
  }
  g_host = nullptr;
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
