// wrbpg-bin-v1 (core/binio.h): round-trips across every graph family,
// spec conformance against an independent encoder, and decode hardening —
// every strict prefix rejected, every single-byte corruption rejected,
// hostile declared counts rejected before allocation.
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/binio.h"
#include "core/graph.h"
#include "core/graph_builder.h"
#include "core/schedule.h"
#include "core/serialize.h"
#include "dataflows/builtin_spec.h"
#include "schedulers/greedy_topo.h"

namespace wrbpg {
namespace {

// Independent little-endian encoder implementing the documented layout
// (binio.h / docs/FORMATS.md). Tests build streams with it and require
// ToBinary to produce the SAME bytes — so the written spec, not just the
// implementation, is what round-trips.
class SpecEncoder {
 public:
  explicit SpecEncoder(std::uint8_t kind) {
    bytes_ = "WBIN";
    bytes_.push_back('\x01');  // version
    bytes_.push_back(static_cast<char>(kind));
    bytes_.push_back('\x00');  // reserved
    bytes_.push_back('\x00');
  }

  SpecEncoder& U8(std::uint8_t v) {
    bytes_.push_back(static_cast<char>(v));
    return *this;
  }
  SpecEncoder& U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return *this;
  }
  SpecEncoder& U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return *this;
  }
  SpecEncoder& Raw(std::string_view s) {
    bytes_.append(s);
    return *this;
  }

  // Appends the FNV-1a-64 footer over everything so far.
  std::string Finish() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes_) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    std::string out = bytes_;
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
    }
    return out;
  }

 private:
  std::string bytes_;
};

Graph Diamond() {
  GraphBuilder b;
  const NodeId a = b.AddNode(16, "in");
  const NodeId l = b.AddNode(8, "left");
  const NodeId r = b.AddNode(8, "right");
  const NodeId z = b.AddNode(32, "out");
  b.AddEdge(a, l);
  b.AddEdge(a, r);
  b.AddEdge(l, z);
  b.AddEdge(r, z);
  return b.BuildOrDie();
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.weight(v), b.weight(v)) << "node " << v;
    EXPECT_EQ(a.name(v), b.name(v)) << "node " << v;
    ASSERT_EQ(a.parents(v).size(), b.parents(v).size()) << "node " << v;
    for (std::size_t i = 0; i < a.parents(v).size(); ++i) {
      EXPECT_EQ(a.parents(v)[i], b.parents(v)[i]);
    }
  }
}

TEST(BinIo, RoundTripsEveryBuiltinFamily) {
  const std::vector<std::string> specs = {"dwt:8,2",    "kary:3,2",
                                          "mvm:3,4",    "butterfly:4",
                                          "random:3,4,7"};
  for (const std::string& spec : specs) {
    const BuiltinGraph built = BuildBuiltinGraph(spec);
    ASSERT_TRUE(built.ok) << spec;
    const std::string bytes = ToBinary(built.graph());
    EXPECT_TRUE(LooksLikeBinary(bytes));
    const GraphParseResult parsed = ParseGraphBinary(bytes);
    ASSERT_TRUE(parsed.ok) << spec << ": " << parsed.error;
    ExpectSameGraph(built.graph(), parsed.graph);
    // Canonical: re-encoding the decoded graph reproduces the bytes.
    EXPECT_EQ(ToBinary(parsed.graph), bytes) << spec;
  }
}

TEST(BinIo, RoundTripsNamedNodes) {
  const Graph g = Diamond();
  const GraphParseResult parsed = ParseGraphBinary(ToBinary(g));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExpectSameGraph(g, parsed.graph);
  EXPECT_EQ(parsed.graph.name(0), "in");
  EXPECT_EQ(parsed.graph.name(3), "out");
}

TEST(BinIo, RoundTripsSchedules) {
  const Graph g = Diamond();
  const ScheduleResult result = GreedyTopoScheduler(g).Run(64);
  ASSERT_TRUE(result.feasible);
  ASSERT_FALSE(result.schedule.empty());
  const std::string bytes = ToBinary(result.schedule);
  EXPECT_TRUE(LooksLikeBinary(bytes));
  const ScheduleParseResult parsed = ParseScheduleBinary(bytes);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.schedule, result.schedule);
  EXPECT_EQ(ToBinary(parsed.schedule), bytes);
}

TEST(BinIo, MatchesTheWrittenSpec) {
  // Hand-encode the 2-node chain {a(16) -> b(8)} per the documented
  // layout and require both byte-equality with ToBinary and a clean
  // decode. If this fails, either the implementation or FORMATS.md is
  // wrong — fix the drift, whichever side it is on.
  GraphBuilder b;
  const NodeId u = b.AddNode(16);
  const NodeId v = b.AddNode(8);
  b.AddEdge(u, v);
  const Graph g = b.BuildOrDie();

  SpecEncoder enc(kBinKindGraph);
  enc.U32(2).U32(1);       // num_nodes, num_edges
  enc.U64(16).U64(8);      // weights
  enc.U8(0);               // names_present
  enc.U32(0).U32(1);       // edge (0, 1)
  const std::string spec_bytes = enc.Finish();
  EXPECT_EQ(ToBinary(g), spec_bytes);
  EXPECT_TRUE(ParseGraphBinary(spec_bytes).ok);
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(BinIo, ToBinaryBytesArePinned) {
  // Golden encodings: ToBinary's bytes are an interchange format (files
  // written by `convert`, request streams replayed by perfbench), so an
  // encoder change must show up here, not drift silently. Unnamed, with
  // edges added out of CSR order; then named.
  GraphBuilder unnamed;
  for (const Weight w : {16, 8, 24, 32, 40}) unnamed.AddNode(w);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {2, 4}, {0, 2}, {1, 3}, {0, 1}, {3, 4}, {1, 2}}) {
    unnamed.AddEdge(u, v);
  }
  EXPECT_EQ(ToBinary(unnamed.BuildOrDie()),
            FromHex("5742494e010100000500000006000000"
                    "10000000000000000800000000000000"
                    "18000000000000002000000000000000"
                    "28000000000000000000000000010000"
                    "00000000000200000001000000020000"
                    "00010000000300000002000000040000"
                    "0003000000040000004141d66853ef56"
                    "e1"));
  EXPECT_EQ(ToBinary(Diamond()),
            FromHex("5742494e010100000400000004000000"
                    "10000000000000000800000000000000"
                    "08000000000000002000000000000000"
                    "0102000000696e040000006c65667405"
                    "0000007269676874030000006f757400"
                    "00000001000000000000000200000001"
                    "00000003000000020000000300000012"
                    "5344ac408a492f"));
}

TEST(BinIo, RejectsEveryStrictPrefix) {
  const std::string graph_bytes = ToBinary(Diamond());
  for (std::size_t len = 0; len < graph_bytes.size(); ++len) {
    const GraphParseResult parsed =
        ParseGraphBinary(std::string_view(graph_bytes).substr(0, len));
    EXPECT_FALSE(parsed.ok) << "prefix of length " << len << " accepted";
    EXPECT_FALSE(parsed.error.empty()) << len;
  }
  const ScheduleResult sched = GreedyTopoScheduler(Diamond()).Run(64);
  ASSERT_TRUE(sched.feasible);
  const std::string sched_bytes = ToBinary(sched.schedule);
  for (std::size_t len = 0; len < sched_bytes.size(); ++len) {
    EXPECT_FALSE(
        ParseScheduleBinary(std::string_view(sched_bytes).substr(0, len)).ok)
        << "prefix of length " << len << " accepted";
  }
}

TEST(BinIo, RejectsEverySingleByteCorruption) {
  // The FNV-1a-64 footer must catch ANY single-byte change anywhere in
  // the stream (including in the footer itself). Exhaustive over
  // positions, seeded-random over replacement values.
  const std::string bytes = ToBinary(Diamond());
  std::mt19937_64 rng(0x5eed);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    const auto original = static_cast<std::uint8_t>(corrupt[pos]);
    std::uint8_t replacement = original;
    while (replacement == original) {
      replacement = static_cast<std::uint8_t>(rng());
    }
    corrupt[pos] = static_cast<char>(replacement);
    const GraphParseResult parsed = ParseGraphBinary(corrupt);
    EXPECT_FALSE(parsed.ok) << "byte " << pos << " flip accepted";
  }
}

TEST(BinIo, RejectsTrailingBytes) {
  std::string bytes = ToBinary(Diamond());
  bytes.push_back('\x00');
  EXPECT_FALSE(ParseGraphBinary(bytes).ok);
}

TEST(BinIo, RejectsWrongEnvelope) {
  const std::string good = ToBinary(Diamond());
  // Graph decoder fed a schedule stream (and vice versa): wrong kind.
  const ScheduleResult sched = GreedyTopoScheduler(Diamond()).Run(64);
  ASSERT_TRUE(sched.feasible);
  const std::string sched_bytes = ToBinary(sched.schedule);
  GraphParseResult as_graph = ParseGraphBinary(sched_bytes);
  EXPECT_FALSE(as_graph.ok);
  EXPECT_NE(as_graph.error.find("kind"), std::string::npos);
  EXPECT_FALSE(ParseScheduleBinary(good).ok);
  // Text input is not binary.
  EXPECT_FALSE(LooksLikeBinary(ToText(Diamond())));
  EXPECT_FALSE(ParseGraphBinary(ToText(Diamond())).ok);
}

TEST(BinIo, RejectsHostileDeclaredCounts) {
  // A tiny stream claiming 2^31 nodes must be rejected by the
  // count-vs-remaining-bytes guard, not by an allocation attempt.
  SpecEncoder nodes(kBinKindGraph);
  nodes.U32(0x7fffffffu).U32(0);
  GraphParseResult r = ParseGraphBinary(nodes.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds the remaining payload"), std::string::npos);

  SpecEncoder edges(kBinKindGraph);
  edges.U32(1).U32(0x7fffffffu).U64(16).U8(0);
  r = ParseGraphBinary(edges.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("exceeds the remaining payload"), std::string::npos);

  SpecEncoder moves(kBinKindSchedule);
  moves.U32(0xffffffffu);
  EXPECT_FALSE(ParseScheduleBinary(moves.Finish()).ok);
}

TEST(BinIo, RejectsModelViolations) {
  // Zero weight.
  SpecEncoder zero_w(kBinKindGraph);
  zero_w.U32(1).U32(0).U64(0).U8(0);
  GraphParseResult r = ParseGraphBinary(zero_w.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("non-positive weight"), std::string::npos);

  // Edge referencing an undeclared node.
  SpecEncoder bad_edge(kBinKindGraph);
  bad_edge.U32(2).U32(1).U64(16).U64(8).U8(0).U32(0).U32(7);
  r = ParseGraphBinary(bad_edge.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("undeclared node"), std::string::npos);

  // Self-loop.
  SpecEncoder self_loop(kBinKindGraph);
  self_loop.U32(2).U32(1).U64(16).U64(8).U8(0).U32(1).U32(1);
  r = ParseGraphBinary(self_loop.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("self-loop"), std::string::npos);

  // Duplicate edge.
  SpecEncoder dup(kBinKindGraph);
  dup.U32(2).U32(2).U64(16).U64(8).U8(0).U32(0).U32(1).U32(0).U32(1);
  r = ParseGraphBinary(dup.Finish());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos);

  // Cycle (caught by GraphBuilder validation, same as the text parser).
  SpecEncoder cycle(kBinKindGraph);
  cycle.U32(3).U32(3).U64(16).U64(8).U64(8).U8(0);
  cycle.U32(0).U32(1).U32(1).U32(2).U32(2).U32(0);
  EXPECT_FALSE(ParseGraphBinary(cycle.Finish()).ok);

  // Invalid move type.
  SpecEncoder bad_move(kBinKindSchedule);
  bad_move.U32(1).U8(9).U32(0);
  const ScheduleParseResult s = ParseScheduleBinary(bad_move.Finish());
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("invalid type"), std::string::npos);
}

TEST(BinIo, RejectsBadVersionAndReserved) {
  std::string bytes = ToBinary(Diamond());
  {
    std::string v2 = bytes;
    v2[4] = '\x02';
    const GraphParseResult r = ParseGraphBinary(v2);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("version"), std::string::npos);
  }
  {
    std::string reserved = bytes;
    reserved[6] = '\x01';
    EXPECT_FALSE(ParseGraphBinary(reserved).ok);
  }
  {
    std::string magic = bytes;
    magic[0] = 'X';
    const GraphParseResult r = ParseGraphBinary(magic);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("magic"), std::string::npos);
  }
}

}  // namespace
}  // namespace wrbpg
