// wrbpg-bin-v1: compact binary (de)serialization for graphs and
// schedules — the hot-path replacement for the text round-trip of
// core/serialize.h (normative spec: docs/FORMATS.md).
//
// Layout (all multi-byte integers little-endian):
//
//   header   "WBIN" (4 bytes) | u8 version = 1 | u8 kind | u16 reserved = 0
//   payload  kind 1 (graph):
//              u32 num_nodes | u32 num_edges
//              num_nodes × i64 weight            (each > 0)
//              u8 names_present (0|1)
//              [num_nodes × (u32 len | len bytes)]   when names_present
//              num_edges × (u32 u | u32 v)
//            kind 2 (schedule):
//              u32 num_moves
//              num_moves × (u8 move_type | u32 node)   (type 0..3 = M1..M4)
//   footer   u64 FNV-1a-64 checksum over header + payload
//
// Decoding is strict: bad magic/version/kind, any truncation, trailing
// bytes, a checksum mismatch, or any model violation (non-positive
// weight, out-of-range endpoint, self-loop, duplicate edge, cycle) is a
// structured parse error, never UB — declared counts are validated
// against the remaining byte budget BEFORE any allocation, so a hostile
// 50-byte input claiming 2^31 nodes is rejected without touching memory.
// The decoder checks what it can name a stream offset for (envelope,
// counts, weights, names, endpoints, self-loops); duplicate edges and
// cycles are found by GraphBuilder::Build, the one validation pass the
// text parser shares, so the two formats accept exactly the same graphs.
#pragma once

#include <string>
#include <string_view>

#include "core/graph.h"
#include "core/schedule.h"
#include "core/serialize.h"

namespace wrbpg {

inline constexpr std::string_view kBinMagic = "WBIN";
inline constexpr std::uint8_t kBinVersion = 1;
inline constexpr std::uint8_t kBinKindGraph = 1;
inline constexpr std::uint8_t kBinKindSchedule = 2;

// True when `bytes` starts with the wrbpg-bin-v1 magic — how tools
// decide between the binary and the text parser for a graph argument.
bool LooksLikeBinary(std::string_view bytes);

// Encoders. Output always round-trips through the matching parser.
std::string ToBinary(const Graph& graph);
std::string ToBinary(const Schedule& schedule);

// Decoders; result types shared with the text parsers (serialize.h).
// `error` is a one-line structured reason on failure ("offset N: ...").
GraphParseResult ParseGraphBinary(std::string_view bytes);
ScheduleParseResult ParseScheduleBinary(std::string_view bytes);

}  // namespace wrbpg
