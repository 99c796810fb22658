// Pass-based static analyzer over Graph (DESIGN.md §12).
//
// Mirrors the lint engine's registry idiom (src/lint) at the graph level:
// a fixed registry of passes with stable ids, each emitting
// machine-checkable facts —
//
//   structure    graph hygiene diagnostics (these are the former LintGraph
//                rules; src/lint delegates here and converts, so lint's
//                rule ids and messages are unchanged)
//   canonical    iso-invariant GraphHash + verified vertex orbits
//   recognition  (family, params[, reference mapping]) for closed-form
//                DP routing
//   bounds       budget-aware start-state lower-bound certificates with
//                re-checkable witnesses (ganalysis/bounds.h)
//
// Everything the analyzer asserts beyond plain facts is carried as a
// certificate whose witness an independent checker re-derives — consumers
// (searcher root bound, robust chain routing, the CLI `analyze` verb)
// never have to trust the prover. Runs are observable under `ganalysis.*`
// counters and span (obs layer, wrbpg-obs-v1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/graph.h"
#include "core/types.h"
#include "ganalysis/bounds.h"
#include "ganalysis/canonical.h"
#include "ganalysis/recognition.h"

namespace wrbpg {

enum class FactSeverity : std::uint8_t { kInfo = 0, kWarning };

const char* ToString(FactSeverity severity);

// Registry entry; ids are stable and usable in CLI output and JSON.
struct AnalysisPass {
  std::string_view id;
  std::string_view description;
};

std::span<const AnalysisPass> AllAnalysisPasses();

// nullptr when no pass has this id.
const AnalysisPass* FindAnalysisPass(std::string_view id);

// One structural diagnostic (the "structure" pass family).
struct GraphFact {
  std::string_view pass_id;  // points into the static registry
  FactSeverity severity = FactSeverity::kInfo;
  NodeId node = kInvalidNode;
  std::string message;
};

// The structure rules alone, judged against `outputs` (the former
// LintGraph semantics: nodes with no path to any output are flagged).
std::vector<GraphFact> RunStructureRules(const Graph& graph,
                                         std::span<const NodeId> outputs);
std::vector<GraphFact> RunStructureRules(const Graph& graph);

struct AnalysisOptions {
  // Budget for the bound certificates; <= 0 selects MinValidBudget(graph).
  Weight budget = 0;
};

struct GraphAnalysis {
  Weight budget = 0;  // the budget the bounds pass ran at

  // canonical
  GraphHash hash = 0;
  std::uint32_t num_colors = 0;
  OrbitPartition orbits;

  // recognition
  RecognitionResult recognition;

  // bounds (BoundKind order) and their VerifyCertificate outcomes
  // (parallel array; a failed check turns into a kWarning fact, which
  // would be an analyzer bug, not a graph property).
  std::vector<BoundCertificate> certificates;
  std::vector<CertificateCheck> checks;
  Weight best_bound = 0;  // max certificate value

  // structure
  std::vector<GraphFact> facts;
};

GraphAnalysis AnalyzeGraph(const Graph& graph,
                           const AnalysisOptions& options = {});

// Human-readable report, one section per pass.
std::string RenderGraphAnalysis(const GraphAnalysis& analysis);

// Machine-readable rendering (stable field names, obs/json writer).
std::string GraphAnalysisToJson(const GraphAnalysis& analysis);

}  // namespace wrbpg
