#include <gtest/gtest.h>

#include <string>

#include "core/serialize.h"
#include "dataflows/random_dag.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

using testing::MakeDiamond;

TEST(Serialize, GraphRoundTrip) {
  const Graph g = MakeDiamond({3, 5, 7, 11, 13});
  const std::string text = ToText(g);
  const auto parsed = ParseGraphText(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const Graph& h = parsed.graph;
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(h.weight(v), g.weight(v));
    ASSERT_EQ(h.parents(v).size(), g.parents(v).size());
    for (std::size_t i = 0; i < g.parents(v).size(); ++i) {
      EXPECT_EQ(h.parents(v)[i], g.parents(v)[i]);
    }
  }
}

TEST(Serialize, GraphTextPreservesNames) {
  GraphBuilder b;
  b.AddNode(16, "x[1]");
  b.AddNode(32, "a1[1]");
  b.AddEdge(0, 1);
  const Graph g = b.BuildOrDie();
  const auto parsed = ParseGraphText(ToText(g));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.graph.name(0), "x[1]");
  EXPECT_EQ(parsed.graph.name(1), "a1[1]");
}

TEST(Serialize, ParseRejectsMissingHeader) {
  const auto r = ParseGraphText("node 0 1\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header"), std::string::npos);
}

TEST(Serialize, ParseRejectsSparseIds) {
  const auto r = ParseGraphText("wrbpg-graph v1\nnode 1 5\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dense"), std::string::npos);
}

TEST(Serialize, ParseRejectsUndeclaredEdgeEndpoint) {
  const auto r = ParseGraphText("wrbpg-graph v1\nnode 0 5\nedge 0 3\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared"), std::string::npos);
}

TEST(Serialize, ParseRejectsUnknownDirective) {
  const auto r = ParseGraphText("wrbpg-graph v1\nvertex 0 5\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown directive"), std::string::npos);
}

TEST(Serialize, ParseSkipsCommentsAndBlankLines) {
  const auto r = ParseGraphText(
      "wrbpg-graph v1\n"
      "# a comment\n"
      "\n"
      "node 0 2\n"
      "node 1 3  # trailing comment\n"
      "edge 0 1\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.graph.num_nodes(), 2u);
  EXPECT_EQ(r.graph.weight(1), 3);
}

TEST(Serialize, ParsePropagatesBuilderValidation) {
  const auto r = ParseGraphText(
      "wrbpg-graph v1\nnode 0 1\nnode 1 1\nedge 0 1\nedge 0 1\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos);
}

TEST(Serialize, DotOutputContainsNodesAndEdges) {
  const Graph g = MakeDiamond();
  const std::string dot = ToDot(g, "diamond");
  EXPECT_NE(dot.find("digraph \"diamond\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
  EXPECT_NE(dot.find("n3 -> n4"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);           // sources
  EXPECT_NE(dot.find("shape=doublecircle"), std::string::npos);  // sinks
}

TEST(Serialize, ScheduleRoundTrip) {
  Schedule s;
  s.Append(Load(0));
  s.Append(Compute(2));
  s.Append(Store(2));
  s.Append(Delete(0));
  const auto parsed = ParseScheduleText(ToText(s));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.schedule, s);
}

TEST(Serialize, ScheduleParseRejectsGarbage) {
  EXPECT_FALSE(ParseScheduleText("M9 3\n").ok);
  EXPECT_FALSE(ParseScheduleText("M1\n").ok);
  EXPECT_FALSE(ParseScheduleText("M1 x\n").ok);
}

TEST(Serialize, ParseRejectsOutOfRangeNodeIdWithLineNumber) {
  const auto r =
      ParseGraphText("wrbpg-graph v1\nnode 4294967295 5\n");  // kInvalidNode
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

TEST(Serialize, ParseRejectsOutOfRangeEdgeEndpoint) {
  const auto r = ParseGraphText(
      "wrbpg-graph v1\nnode 0 5\nedge 0 99999999999\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

TEST(Serialize, ParseRejectsNonPositiveWeights) {
  EXPECT_FALSE(ParseGraphText("wrbpg-graph v1\nnode 0 0\n").ok);
  const auto r = ParseGraphText("wrbpg-graph v1\nnode 0 -3\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("positive"), std::string::npos) << r.error;
}

// Three 2^62 - 1 weights overflow a 64-bit total. The builder refuses a
// total past kMaxTotalWeight (2^40 bits) and names the node that crosses
// it; a total of exactly 2^40 is admitted.
TEST(Serialize, ParseEnforcesTheTotalWeightLimit) {
  auto three_nodes = [](const std::string& w0, const std::string& w1,
                        const std::string& w2) {
    return "wrbpg-graph v1\nnode 0 " + w0 + "\nnode 1 " + w1 + "\nnode 2 " +
           w2 + "\nedge 0 2\nedge 1 2\n";
  };
  const std::string huge = "4611686018427387903";
  auto r = ParseGraphText(three_nodes(huge, huge, huge));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("node 0"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("2^40"), std::string::npos) << r.error;

  r = ParseGraphText(
      three_nodes("274877906944", "274877906944", "549755813889"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("node 2"), std::string::npos) << r.error;

  r = ParseGraphText(
      three_nodes("274877906944", "274877906944", "549755813888"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.graph.total_weight(), kMaxTotalWeight);
}

TEST(Serialize, ParseRejectsSelfLoopWithLineNumber) {
  const auto r = ParseGraphText("wrbpg-graph v1\nnode 0 5\nedge 0 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("self-loop"), std::string::npos) << r.error;
}

TEST(Serialize, ParseRejectsDuplicateEdgeWithLineNumber) {
  const auto r = ParseGraphText(
      "wrbpg-graph v1\nnode 0 1\nnode 1 1\nedge 0 1\nedge 0 1\n");
  EXPECT_FALSE(r.ok);
  // GraphBuilder::Build finds the duplicate; the parser maps the edge it
  // names back to the line of its second occurrence.
  EXPECT_NE(r.error.find("line 5"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos) << r.error;
}

TEST(Serialize, ParseRejectsTruncatedInput) {
  const auto r = ParseGraphText("wrbpg-graph v1\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(Serialize, ScheduleParseRejectsOutOfRangeNodeId) {
  const auto r = ParseScheduleText("M1 4294967295\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

// Round-trip fuzz: every random DAG the generator can produce must
// serialize to text that parses back to the *same* graph (checked both
// structurally and by re-serializing to identical text).
TEST(Serialize, RandomDagRoundTripFuzz) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    RandomDagOptions options;
    options.num_layers = 2 + static_cast<int>(seed % 4);
    options.nodes_per_layer = 1 + static_cast<int>(seed % 5);
    options.max_in_degree = 1 + static_cast<int>(seed % 3);
    options.max_weight = 1 + static_cast<Weight>(seed);
    const Graph g = BuildRandomDag(rng, options);

    const std::string text = ToText(g);
    const auto parsed = ParseGraphText(text);
    ASSERT_TRUE(parsed.ok) << "seed " << seed << ": " << parsed.error;
    const Graph& h = parsed.graph;
    ASSERT_EQ(h.num_nodes(), g.num_nodes()) << "seed " << seed;
    ASSERT_EQ(h.num_edges(), g.num_edges()) << "seed " << seed;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(h.weight(v), g.weight(v));
    }
    EXPECT_EQ(ToText(h), text) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wrbpg
