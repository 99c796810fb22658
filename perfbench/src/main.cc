// wrbpg_perfbench — the repository benchmark binary (see ../README.md).
//
//   wrbpg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out PATH] [--tiny] [--tamper cost|move|repeat]
//
// Runs one workload as a single-client closed loop in this process, checks
// every response, and prints one JSON result line as the last line of
// stdout: the end-to-end metrics untraced, the per-layer metrics traced.
// Exits 1 when any check failed, 2 on a usage error.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "util/thread_pool.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "wrbpg_perfbench: " << why
            << "\nusage: wrbpg_perfbench --workload serve-recurring|"
               "exact-cold|deadline-large|explore-sweep --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--tiny] "
               "[--tamper cost|move|repeat]\n";
  return 2;
}

bool ParseNumber(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

bool ParseSeed(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Settings settings;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      settings.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      settings.workload = value;
    } else if (flag == "--seed") {
      if (!ParseSeed(value, settings.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, number) || number <= 0 || number > 120) {
        return Usage("bad --seconds");
      }
      settings.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      settings.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      settings.trace_out = value;
    } else if (flag == "--tamper") {
      if (value != "cost" && value != "move" && value != "repeat") {
        return Usage("bad --tamper");
      }
      settings.tamper = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  // Every thread count is 1: the options structs set it explicitly, and
  // this pins the process default WRBPG_THREADS would otherwise set.
  wrbpg::SetDefaultSearchThreads(1);

  using Factory = std::unique_ptr<perfbench::Workload> (*)(
      const perfbench::Settings&);
  Factory factory = nullptr;
  if (settings.workload == "serve-recurring") {
    factory = perfbench::MakeServeRecurring;
  } else if (settings.workload == "exact-cold") {
    factory = perfbench::MakeExactCold;
  } else if (settings.workload == "deadline-large") {
    factory = perfbench::MakeDeadlineLarge;
  } else if (settings.workload == "explore-sweep") {
    factory = perfbench::MakeExploreSweep;
  } else {
    return Usage("unknown workload '" + settings.workload + "'");
  }
  return perfbench::RunBenchmark(settings, [&] { return factory(settings); });
}
