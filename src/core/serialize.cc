#include "core/serialize.h"

#include <charconv>
#include <sstream>
#include <vector>

#include "core/graph_builder.h"
#include "core/types.h"

namespace wrbpg {
namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;
    tokens.push_back(tok);
  }
  return tokens;
}

bool ParseI64(const std::string& s, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

std::string ToText(const Graph& graph) {
  std::ostringstream out;
  out << "wrbpg-graph v1\n";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    out << "node " << v << ' ' << graph.weight(v);
    if (!graph.name(v).empty()) out << ' ' << graph.name(v);
    out << '\n';
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId c : graph.children(v)) {
      out << "edge " << v << ' ' << c << '\n';
    }
  }
  return out.str();
}

std::string ToDot(const Graph& graph, const std::string& title) {
  std::ostringstream out;
  out << "digraph \"" << title << "\" {\n  rankdir=TB;\n";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    out << "  n" << v << " [label=\"";
    if (!graph.name(v).empty()) {
      out << graph.name(v);
    } else {
      out << 'v' << v;
    }
    out << "\\nw=" << graph.weight(v) << '"';
    if (graph.is_source(v)) out << ", shape=box";
    if (graph.is_sink(v)) out << ", shape=doublecircle";
    out << "];\n";
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId c : graph.children(v)) {
      out << "  n" << v << " -> n" << c << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

GraphParseResult ParseGraphText(const std::string& text) {
  GraphParseResult result;
  std::istringstream in(text);
  std::string line;
  GraphBuilder builder;
  std::vector<std::size_t> edge_lines;  // line of each edge, for Build errors
  bool header_seen = false;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& message) {
    result.error = "line " + std::to_string(lineno) + ": " + message;
    return result;
  };
  // Dense ids are capped well below NodeId's range; anything larger is a
  // corrupt or hostile input, reported before it can wrap on a cast.
  constexpr std::int64_t kMaxNodeId = kInvalidNode - 1;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (!header_seen) {
      if (tokens.size() != 2 || tokens[0] != "wrbpg-graph" ||
          tokens[1] != "v1") {
        return fail("expected header 'wrbpg-graph v1'");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "node") {
      if (tokens.size() < 3 || tokens.size() > 4) {
        return fail("node directive takes: node <id> <weight> [name]");
      }
      std::int64_t id = 0, weight = 0;
      if (!ParseI64(tokens[1], id) || !ParseI64(tokens[2], weight)) {
        return fail("malformed node id or weight");
      }
      if (id < 0 || id > kMaxNodeId) {
        return fail("node id " + tokens[1] + " out of range");
      }
      if (weight <= 0) {
        return fail("node weight must be positive, got " + tokens[2]);
      }
      if (id != builder.num_nodes()) {
        return fail("node ids must be dense and in order (expected " +
                    std::to_string(builder.num_nodes()) + ")");
      }
      builder.AddNode(weight, tokens.size() == 4 ? tokens[3] : std::string());
    } else if (tokens[0] == "edge") {
      if (tokens.size() != 3) return fail("edge directive takes: edge <u> <v>");
      std::int64_t u = 0, v = 0;
      if (!ParseI64(tokens[1], u) || !ParseI64(tokens[2], v)) {
        return fail("malformed edge endpoints");
      }
      if (u < 0 || u > kMaxNodeId || v < 0 || v > kMaxNodeId) {
        return fail("edge endpoint out of range");
      }
      if (u >= builder.num_nodes() || v >= builder.num_nodes()) {
        return fail("edge references undeclared node");
      }
      if (u == v) {
        return fail("self-loop on node " + tokens[1]);
      }
      // Duplicates and cycles are left to GraphBuilder::Build, the one
      // model check both formats share.
      builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
      edge_lines.push_back(lineno);
    } else {
      return fail("unknown directive '" + tokens[0] + "'");
    }
  }
  if (!header_seen) {
    result.error = "empty input: missing 'wrbpg-graph v1' header";
    return result;
  }
  if (builder.num_nodes() == 0) {
    result.error = "truncated input: header present but no node directives";
    return result;
  }
  auto built = builder.Build();
  if (!built.ok) {
    result.error = built.error;
    if (built.error_edge != GraphBuilder::kNoEdge) {
      lineno = edge_lines[built.error_edge];
      return fail(built.error);
    }
    return result;
  }
  result.graph = std::move(built.graph);
  result.ok = true;
  return result;
}

std::string ToText(const Schedule& schedule) {
  std::ostringstream out;
  for (const Move& m : schedule) {
    out << ToString(m.type) << ' ' << m.node << '\n';
  }
  return out.str();
}

ScheduleParseResult ParseScheduleText(const std::string& text) {
  ScheduleParseResult result;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (tokens.size() != 2) {
      result.error =
          "line " + std::to_string(lineno) + ": expected '<M1..M4> <node>'";
      return result;
    }
    MoveType type;
    if (tokens[0] == "M1") {
      type = MoveType::kLoad;
    } else if (tokens[0] == "M2") {
      type = MoveType::kStore;
    } else if (tokens[0] == "M3") {
      type = MoveType::kCompute;
    } else if (tokens[0] == "M4") {
      type = MoveType::kDelete;
    } else {
      result.error = "line " + std::to_string(lineno) + ": unknown move '" +
                     tokens[0] + "'";
      return result;
    }
    std::int64_t node = 0;
    if (!ParseI64(tokens[1], node) || node < 0) {
      result.error = "line " + std::to_string(lineno) + ": malformed node id";
      return result;
    }
    if (node > static_cast<std::int64_t>(kInvalidNode) - 1) {
      result.error =
          "line " + std::to_string(lineno) + ": node id out of range";
      return result;
    }
    result.schedule.Append({type, static_cast<NodeId>(node)});
  }
  result.ok = true;
  return result;
}

}  // namespace wrbpg

