#include "ganalysis/ganalysis.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>

#include "core/analysis.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace wrbpg {

const char* ToString(FactSeverity severity) {
  switch (severity) {
    case FactSeverity::kInfo: return "info";
    case FactSeverity::kWarning: return "warning";
  }
  return "?";
}

namespace {

constexpr AnalysisPass kPasses[] = {
    {"graph-irrelevant-node",
     "node has no path to any output; schedules never need it"},
    {"graph-nonpositive-weight", "node weight is not positive"},
    {"graph-isolated-node", "node is both a source and a sink"},
    {"canonical-hash",
     "iso-invariant structural hash and verified vertex orbits"},
    {"family-recognition",
     "identify chain/kary/dwt instances for closed-form DP routing"},
    {"bound-certificates",
     "budget-aware start-state I/O lower bounds with re-checkable "
     "witnesses"},
};

std::string NodeStr(NodeId v) { return "v" + std::to_string(v); }

}  // namespace

std::span<const AnalysisPass> AllAnalysisPasses() { return kPasses; }

const AnalysisPass* FindAnalysisPass(std::string_view id) {
  for (const auto& pass : kPasses) {
    if (pass.id == id) return &pass;
  }
  return nullptr;
}

std::vector<GraphFact> RunStructureRules(const Graph& graph,
                                         std::span<const NodeId> outputs) {
  std::vector<GraphFact> facts;
  const NodeId n = graph.num_nodes();

  // Reverse reachability from the outputs: a node that cannot reach any
  // of them contributes nothing to the stopping condition.
  std::vector<unsigned char> relevant(n, 0);
  std::vector<NodeId> stack;
  for (NodeId s : outputs) {
    if (s < n && !relevant[s]) {
      relevant[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId p : graph.parents(v)) {
      if (!relevant[p]) {
        relevant[p] = 1;
        stack.push_back(p);
      }
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (!relevant[v]) {
      facts.push_back({.pass_id = "graph-irrelevant-node",
                       .severity = FactSeverity::kInfo,
                       .node = v,
                       .message = NodeStr(v) +
                                  " has no path to any output; schedules "
                                  "never need it"});
    }
    if (graph.weight(v) <= 0) {
      facts.push_back({.pass_id = "graph-nonpositive-weight",
                       .severity = FactSeverity::kInfo,
                       .node = v,
                       .message = NodeStr(v) + " has non-positive weight " +
                                  std::to_string(graph.weight(v))});
    }
    if (graph.is_source(v) && graph.is_sink(v)) {
      facts.push_back({.pass_id = "graph-isolated-node",
                       .severity = FactSeverity::kInfo,
                       .node = v,
                       .message = NodeStr(v) +
                                  " is both a source and a sink (isolated)"});
    }
  }
  return facts;
}

std::vector<GraphFact> RunStructureRules(const Graph& graph) {
  return RunStructureRules(graph, graph.sinks());
}

GraphAnalysis AnalyzeGraph(const Graph& graph, const AnalysisOptions& options) {
  static const obs::Counter runs("ganalysis.runs");
  static const obs::Counter certs_emitted("ganalysis.certificates");
  static const obs::Counter verify_ok("ganalysis.verify.ok");
  static const obs::Counter verify_fail("ganalysis.verify.fail");
  static const obs::Counter recognized("ganalysis.recognized");
  static const obs::Gauge orbit_gauge("ganalysis.orbits");
  static const obs::Counter excess_bits("ganalysis.excess_bits");
  obs::ScopedSpan span("ganalysis.analyze");
  runs.Add();

  GraphAnalysis a;
  a.budget = options.budget > 0 ? options.budget : MinValidBudget(graph);

  {
    obs::ScopedSpan pass_span("ganalysis.canonical");
    const ColorRefinement refinement = RefineColors(graph);
    a.num_colors = refinement.num_colors;
    a.hash = HashGraph(graph);
    a.orbits = ComputeOrbits(graph);
    orbit_gauge.Max(a.orbits.num_orbits);
  }
  {
    obs::ScopedSpan pass_span("ganalysis.recognition");
    a.recognition = RecognizeFamily(graph);
    if (a.recognition.recognized()) recognized.Add();
  }
  {
    obs::ScopedSpan pass_span("ganalysis.bounds");
    a.certificates = ComputeBoundCertificates(graph, a.budget);
    certs_emitted.Add(a.certificates.size());
    for (const auto& cert : a.certificates) {
      a.best_bound = std::max(a.best_bound, cert.value);
      excess_bits.Add(static_cast<std::uint64_t>(cert.excess));
      a.checks.push_back(VerifyCertificate(graph, cert));
      (a.checks.back().ok ? verify_ok : verify_fail).Add();
    }
  }
  {
    obs::ScopedSpan pass_span("ganalysis.structure");
    a.facts = RunStructureRules(graph);
  }

  for (std::size_t i = 0; i < a.checks.size(); ++i) {
    if (!a.checks[i].ok) {
      a.facts.push_back(
          {.pass_id = "bound-certificates",
           .severity = FactSeverity::kWarning,
           .message = std::string(ToString(a.certificates[i].kind)) +
                      " certificate failed verification: " +
                      a.checks[i].error});
    }
  }
  return a;
}

std::string RenderGraphAnalysis(const GraphAnalysis& a) {
  std::string out;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(a.hash));
  out += "canonical: hash=" + std::string(buf) +
         " colors=" + std::to_string(a.num_colors) +
         " orbits=" + std::to_string(a.orbits.num_orbits) + "\n";
  out += "recognition: family=" + std::string(ToString(a.recognition.family));
  if (a.recognition.recognized()) out += " spec=" + a.recognition.label;
  out += "\n";
  out += "bounds @ budget " + std::to_string(a.budget) + ":\n";
  for (std::size_t i = 0; i < a.certificates.size(); ++i) {
    const auto& c = a.certificates[i];
    out += "  " + std::string(ToString(c.kind)) +
           ": value=" + std::to_string(c.value) +
           " (base=" + std::to_string(c.base) +
           " excess=" + std::to_string(c.excess) +
           " groups=" + std::to_string(c.groups.size()) + ")";
    if (i < a.checks.size()) {
      out += a.checks[i].ok ? " verified"
                            : " VERIFY-FAILED: " + a.checks[i].error;
    }
    out += "\n";
    for (const auto& g : c.groups) {
      out += "    charge v" + std::to_string(g.child) + " level " +
             std::to_string(g.level) + " parents {";
      for (std::size_t j = 0; j < g.parents.size(); ++j) {
        if (j > 0) out += ",";
        out += "v" + std::to_string(g.parents[j]);
      }
      out += "} price " + std::to_string(g.min_price) + "\n";
    }
  }
  out += "best bound: " + std::to_string(a.best_bound) + "\n";
  for (const auto& f : a.facts) {
    out += std::string(ToString(f.severity)) + " [" +
           std::string(f.pass_id) + "] " + f.message + "\n";
  }
  return out;
}

std::string GraphAnalysisToJson(const GraphAnalysis& a) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", "wrbpg-ganalysis-v1");
  doc.Set("budget", a.budget);

  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(a.hash));
  obs::Json canonical = obs::Json::Object();
  canonical.Set("hash", std::string(buf));
  canonical.Set("colors", static_cast<std::uint64_t>(a.num_colors));
  canonical.Set("orbits", static_cast<std::uint64_t>(a.orbits.num_orbits));
  doc.Set("canonical", std::move(canonical));

  obs::Json recog = obs::Json::Object();
  recog.Set("family", ToString(a.recognition.family));
  if (a.recognition.recognized()) {
    recog.Set("spec", a.recognition.label);
    recog.Set("param0", a.recognition.param0);
    recog.Set("param1", a.recognition.param1);
  }
  doc.Set("recognition", std::move(recog));

  obs::Json certs = obs::Json::Array();
  for (std::size_t i = 0; i < a.certificates.size(); ++i) {
    const auto& c = a.certificates[i];
    obs::Json jc = obs::Json::Object();
    jc.Set("kind", ToString(c.kind));
    jc.Set("value", c.value);
    jc.Set("base", c.base);
    jc.Set("excess", c.excess);
    if (i < a.checks.size()) jc.Set("verified", a.checks[i].ok);
    obs::Json groups = obs::Json::Array();
    for (const auto& g : c.groups) {
      obs::Json jg = obs::Json::Object();
      jg.Set("child", static_cast<std::uint64_t>(g.child));
      jg.Set("level", std::int64_t{g.level});
      jg.Set("price", g.min_price);
      obs::Json parents = obs::Json::Array();
      for (NodeId p : g.parents) parents.Push(static_cast<std::uint64_t>(p));
      jg.Set("parents", std::move(parents));
      groups.Push(std::move(jg));
    }
    jc.Set("groups", std::move(groups));
    certs.Push(std::move(jc));
  }
  doc.Set("certificates", std::move(certs));
  doc.Set("best_bound", a.best_bound);

  obs::Json facts = obs::Json::Array();
  for (const auto& f : a.facts) {
    obs::Json jf = obs::Json::Object();
    jf.Set("pass", f.pass_id);
    jf.Set("severity", ToString(f.severity));
    if (f.node != kInvalidNode) {
      jf.Set("node", static_cast<std::uint64_t>(f.node));
    }
    jf.Set("message", f.message);
    facts.Push(std::move(jf));
  }
  doc.Set("facts", std::move(facts));
  return doc.Dump();
}

}  // namespace wrbpg
