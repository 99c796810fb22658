#include "explore/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "util/table.h"

namespace wrbpg {
namespace {

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// Energies span sub-nJ (tiny macros) to many nJ; significant digits keep
// both readable where fixed decimals would flatten the small ones to 0.00.
std::string FmtSig(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string HexHash(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

std::string RenderExploreTable(const ExploreResult& result) {
  std::ostringstream out;
  if (!result.ok) {
    out << "exploration failed: " << result.error << "\n";
    return out.str();
  }
  out << "explored budgets [" << result.budget_lo << ", " << result.budget_hi
      << "] step " << result.budget_step << ": " << result.points.size()
      << " points, " << result.frontier.size() << " on frontier, "
      << result.dominated << " dominated, " << result.infeasible_budgets
      << " infeasible budgets, " << result.budgets_certified
      << " budgets certified past the knee, " << result.invalid_points
      << " invalid points skipped\n";
  TextTable table({"Budget", "Capacity", "Word", "IO cost", "LB", "Gap",
                   "Area (lambda^2)", "Leakage (mW)", "Energy (nJ)",
                   "Frontier"});
  for (const ExplorePoint& p : result.points) {
    table.AddRow({std::to_string(p.budget), std::to_string(p.capacity_bits),
                  std::to_string(p.word_bits), std::to_string(p.io_cost),
                  std::to_string(p.lower_bound), std::to_string(p.gap),
                  Fmt(p.area_lambda2), Fmt(p.leakage_mw),
                  FmtSig(p.energy_nj), p.on_frontier ? "*" : ""});
  }
  table.Print(out);
  return out.str();
}

std::string RenderFrontierPlot(const ExploreResult& result, int width,
                               int height) {
  std::ostringstream out;
  if (!result.ok || result.points.empty()) {
    out << "(no design points to plot)\n";
    return out.str();
  }
  double area_lo = result.points[0].area_lambda2, area_hi = area_lo;
  double energy_lo = result.points[0].energy_nj, energy_hi = energy_lo;
  for (const ExplorePoint& p : result.points) {
    area_lo = std::min(area_lo, p.area_lambda2);
    area_hi = std::max(area_hi, p.area_lambda2);
    energy_lo = std::min(energy_lo, p.energy_nj);
    energy_hi = std::max(energy_hi, p.energy_nj);
  }
  if (area_hi <= area_lo || energy_hi <= energy_lo) {
    out << "(all " << result.points.size()
        << " points coincide in area/energy; nothing to plot)\n";
    return out.str();
  }
  const int cols = std::max(8, width);
  const int rows = std::max(4, height);
  std::vector<std::string> canvas(static_cast<std::size_t>(rows),
                                  std::string(static_cast<std::size_t>(cols),
                                              ' '));
  // Dominated points first so a frontier '*' sharing a cell wins the pixel.
  for (const bool frontier_pass : {false, true}) {
    for (const ExplorePoint& p : result.points) {
      if (p.on_frontier != frontier_pass) continue;
      const int c = static_cast<int>((p.area_lambda2 - area_lo) /
                                     (area_hi - area_lo) * (cols - 1));
      const int r = static_cast<int>((p.energy_nj - energy_lo) /
                                     (energy_hi - energy_lo) * (rows - 1));
      // Row 0 renders at the top; high energy plots high.
      canvas[static_cast<std::size_t>(rows - 1 - r)]
            [static_cast<std::size_t>(c)] = frontier_pass ? '*' : '.';
    }
  }
  out << "area (x, " << Fmt(area_lo) << ".." << Fmt(area_hi)
      << " lambda^2) vs energy (y, " << FmtSig(energy_lo) << ".."
      << FmtSig(energy_hi) << " nJ); '*' frontier, '.' dominated\n";
  for (int r = 0; r < rows; ++r) {
    out << (r == 0 ? "energy |" : "       |")
        << canvas[static_cast<std::size_t>(r)] << "|\n";
  }
  out << "       +" << std::string(static_cast<std::size_t>(cols), '-')
      << "+\n";
  return out.str();
}

obs::Json ExploreToJson(const std::string& instance,
                        const std::string& scheduler,
                        const ExploreResult& result) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "wrbpg-explore-v1");
  doc.Set("instance", instance);
  doc.Set("scheduler", scheduler);
  doc.Set("ok", result.ok);
  if (!result.ok) {
    doc.Set("error", result.error);
    return doc;
  }
  obs::Json band = obs::Json::Object();
  band.Set("lo", static_cast<std::int64_t>(result.budget_lo));
  band.Set("hi", static_cast<std::int64_t>(result.budget_hi));
  band.Set("step", static_cast<std::int64_t>(result.budget_step));
  doc.Set("band", std::move(band));
  doc.Set("budgets_scanned",
          static_cast<std::uint64_t>(result.budgets_scanned));
  doc.Set("budgets_certified",
          static_cast<std::uint64_t>(result.budgets_certified));
  doc.Set("infeasible_budgets",
          static_cast<std::uint64_t>(result.infeasible_budgets));
  doc.Set("invalid_points", static_cast<std::uint64_t>(result.invalid_points));
  doc.Set("dominated", static_cast<std::uint64_t>(result.dominated));
  doc.Set("frontier_hash", HexHash(FrontierHash(result)));
  obs::Json points = obs::Json::Array();
  for (const ExplorePoint& p : result.points) {
    obs::Json point = obs::Json::Object();
    point.Set("budget", static_cast<std::int64_t>(p.budget));
    point.Set("capacity_bits", static_cast<std::int64_t>(p.capacity_bits));
    point.Set("word_bits", static_cast<std::int64_t>(p.word_bits));
    point.Set("io_cost", static_cast<std::int64_t>(p.io_cost));
    point.Set("lower_bound", static_cast<std::int64_t>(p.lower_bound));
    point.Set("gap", static_cast<std::int64_t>(p.gap));
    point.Set("termination", ToString(p.termination));
    point.Set("bits_loaded", static_cast<std::int64_t>(p.bits_loaded));
    point.Set("bits_stored", static_cast<std::int64_t>(p.bits_stored));
    point.Set("area_lambda2", p.area_lambda2);
    point.Set("leakage_mw", p.leakage_mw);
    point.Set("energy_nj", p.energy_nj);
    point.Set("on_frontier", p.on_frontier);
    points.Push(std::move(point));
  }
  doc.Set("points", std::move(points));
  obs::Json frontier = obs::Json::Array();
  for (std::size_t idx : result.frontier) {
    frontier.Push(static_cast<std::uint64_t>(idx));
  }
  doc.Set("frontier", std::move(frontier));
  return doc;
}

}  // namespace wrbpg
