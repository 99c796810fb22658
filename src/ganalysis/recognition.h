// Structural family recognition (DESIGN.md §12).
//
// Identifies serialized graphs as instances of the closed-form families —
// chain, k-ary in-tree, DWT(n, d) — and returns the parameters plus, for
// DWT, a freshly built reference instance and a verified isomorphism onto
// it, so callers can route to the polynomial DP schedulers
// (KaryTreeScheduler, DwtOptimalScheduler) instead of exponential search.
// Recognition is conservative: a kUnknown answer is always safe, a
// recognized answer is backed by an explicitly checked structure (in-tree
// test / verified bijection), never by parameter heuristics alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/types.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/weights.h"

namespace wrbpg {

enum class GraphFamily : std::uint8_t {
  kUnknown = 0,
  kChain,     // in-tree with every in-degree <= 1 (a path into the sink)
  kKaryTree,  // rooted in-tree, in-degree <= 8 (the DP's k! 2^k limit)
  kDwt,       // isomorphic to BuildDwt(n, d) for the inferred precision
};

const char* ToString(GraphFamily family);

struct RecognitionResult {
  GraphFamily family = GraphFamily::kUnknown;
  // Family parameters: chain -> (length, 0); kary -> (k, depth);
  // dwt -> (n, d).
  std::int64_t param0 = 0;
  std::int64_t param1 = 0;
  // Inferred node-weight configuration (dwt only; trees take arbitrary
  // weights and leave this zero).
  PrecisionConfig config = {0, 0};
  // dwt only: the reference BuildDwt(param0, param1, config) that
  // recognition verified, and the mapping graph-id -> reference-id. Empty
  // for the tree families (their DP runs on the graph directly).
  std::optional<DwtGraph> reference;
  std::vector<NodeId> to_reference;
  // Human-readable spec label, e.g. "dwt:16,2" / "kary:2,4" / "chain:9".
  std::string label;

  bool recognized() const { return family != GraphFamily::kUnknown; }
};

RecognitionResult RecognizeFamily(const Graph& graph);

}  // namespace wrbpg
