// Fundamental types of the Weighted Red-Blue Pebble Game (WRBPG).
//
// Weights and budgets are positive 64-bit integers measured in *bits*. The
// paper (Sec 2.1) allows real weights of polynomial precision; the entire
// evaluation uses bit-widths (16-bit words, 32-bit accumulators), and integer
// weights keep the (node, budget) dynamic programs exact and hashable.
#pragma once

#include <cstdint>
#include <limits>

namespace wrbpg {

// Index of a node in a Graph. Dense, assigned by GraphBuilder in insertion
// order.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

// Node weight / fast-memory budget, in bits.
using Weight = std::int64_t;

// Sentinel for "no valid schedule under this budget" (Eq. 2's infinity).
inline constexpr Weight kInfiniteCost = std::numeric_limits<Weight>::max() / 4;

// Admission limit on a graph's total weight: GraphBuilder::Build rejects a
// graph whose weights sum past it. The paper's weights are bit-widths
// (Sec 2.1: 16-bit words, 32-bit accumulators), so a million-node graph
// of 64-bit values weighs 2^26 bits, and 2^40 leaves room to spare. It
// keeps every sum the model bounds take far below kInfiniteCost (about
// 2^61): a Prop 2.3 footprint or the Prop 2.4 bound is at most the total
// weight, and a hold-or-pay certificate prices each node at most twice.
inline constexpr Weight kMaxTotalWeight = Weight{1} << 40;

}  // namespace wrbpg
