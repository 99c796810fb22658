// The rules kernel (core/rules.h) on its own: the precondition order and
// offending node of Check, the idempotent effects of Apply, the operand
// sets, and the one text of every violation code. Simulate, lint, the
// executor and the repairer all replay through this kernel, so these
// contracts are pinned here rather than by comparing two copies of it.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/graph_builder.h"
#include "core/rules.h"
#include "core/simulator.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

// Diamond: sources v0, v1; v2 reads {v0, v1}; v3 reads {v1}; sink v4 reads
// {v2, v3}. Distinct power-of-two weights make every red weight unique.
Graph Diamond() { return testing::MakeDiamond({1, 2, 4, 8, 16}); }

void ExpectViolation(const PebbleState& state, const Move& move,
                     SimErrorCode code, NodeId node) {
  const RuleViolation violation = state.Check(move);
  EXPECT_EQ(violation.code, code)
      << ToString(move) << " gave " << ToString(violation.code);
  EXPECT_EQ(violation.node, node) << ToString(move);
}

TEST(Rules, CheckReportsTheFirstViolatedPrecondition) {
  const Graph g = Diamond();
  PebbleState state(g);
  ExpectViolation(state, Load(0), SimErrorCode::kNone, kInvalidNode);
  ExpectViolation(state, Load(5), SimErrorCode::kNodeOutOfRange, 5);
  ExpectViolation(state, Load(2), SimErrorCode::kLoadNoBlue, 2);
  // M2 tests the red pebble before the blue one: v0 is blue, not red.
  ExpectViolation(state, Store(0), SimErrorCode::kStoreNoRed, 0);
  ExpectViolation(state, Compute(0), SimErrorCode::kComputeSource, 0);
  // Both parents of v4 are missing; the first in CSR order is reported.
  ExpectViolation(state, Compute(4), SimErrorCode::kComputeParentNotRed, 2);
  ExpectViolation(state, Delete(1), SimErrorCode::kDeleteNoRed, 1);

  state.Apply(Load(0));
  ExpectViolation(state, Load(0), SimErrorCode::kLoadAlreadyRed, 0);
  ExpectViolation(state, Store(0), SimErrorCode::kStoreAlreadyBlue, 0);
  // M3 on a red source is a source violation first.
  ExpectViolation(state, Compute(0), SimErrorCode::kComputeSource, 0);
  ExpectViolation(state, Compute(2), SimErrorCode::kComputeParentNotRed, 1);

  state.Apply(Load(1));
  ExpectViolation(state, Compute(2), SimErrorCode::kNone, kInvalidNode);
  state.Apply(Compute(2));
  // v2 is red but not blue: M1 tests the blue pebble first.
  ExpectViolation(state, Load(2), SimErrorCode::kLoadNoBlue, 2);
  ExpectViolation(state, Store(2), SimErrorCode::kNone, kInvalidNode);
  // With a parent gone, a red v2 is still reported as already red.
  state.Apply(Delete(0));
  ExpectViolation(state, Compute(2), SimErrorCode::kComputeAlreadyRed, 2);
}

TEST(Rules, ApplyIsIdempotentAndWeighsOnlyRedFlips) {
  const Graph g = Diamond();
  PebbleState state(g);
  EXPECT_TRUE(state.blue(0));
  EXPECT_TRUE(state.blue(1));
  EXPECT_FALSE(state.blue(2));
  EXPECT_EQ(state.red_weight(), 0);

  state.Apply(Load(0));
  state.Apply(Load(0));
  EXPECT_TRUE(state.red(0));
  EXPECT_EQ(state.red_weight(), 1);
  // Effects apply whether or not the preconditions hold (v1 is not red).
  state.Apply(Compute(2));
  EXPECT_EQ(state.red_weight(), 1 + 4);
  state.Apply(Delete(3));
  EXPECT_EQ(state.red_weight(), 1 + 4);
  state.Apply(Delete(0));
  state.Apply(Delete(0));
  EXPECT_FALSE(state.red(0));
  EXPECT_EQ(state.red_weight(), 4);
  state.Apply(Store(2));
  state.Apply(Store(2));
  EXPECT_TRUE(state.blue(2));
  EXPECT_EQ(state.red_weight(), 4);
  state.Apply(Load(5));
  state.Apply(Delete(5));
  EXPECT_EQ(state.red_weight(), 4);
}

TEST(Rules, UnmetSinksListsEverySinkWithoutBlueAscending) {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddNode(1);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  const Graph g = b.BuildOrDie();
  PebbleState state(g);
  EXPECT_EQ(state.UnmetSinks(), (std::vector<NodeId>{1, 2}));
  state.Apply(Store(1));
  EXPECT_EQ(state.UnmetSinks(), (std::vector<NodeId>{2}));
  state.Apply(Store(2));
  EXPECT_TRUE(state.UnmetSinks().empty());

  // Simulate reports the first of them, by name.
  const SimResult sim = Simulate(g, 10, Schedule());
  EXPECT_EQ(sim.code, SimErrorCode::kStopConditionUnmet);
  EXPECT_EQ(sim.error_node, 1u);
  EXPECT_EQ(sim.error,
            "stopping condition unmet: sink v1 holds no blue pebble");
}

TEST(Rules, ForEachOperandReadsTheStoredNodeAndTheComputedParents) {
  const Graph g = Diamond();
  auto operands = [&](const Move& move) {
    std::vector<NodeId> out;
    ForEachOperand(g, move, [&](NodeId u) { out.push_back(u); });
    return out;
  };
  EXPECT_EQ(operands(Store(2)), (std::vector<NodeId>{2}));
  EXPECT_EQ(operands(Compute(4)), (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(operands(Compute(0)).empty());
  EXPECT_TRUE(operands(Load(0)).empty());
  EXPECT_TRUE(operands(Delete(2)).empty());
  EXPECT_TRUE(operands(Store(5)).empty());
}

TEST(Rules, DescribeViolationHasOneTextPerCode) {
  const Move load = Load(2);
  const Move store = Store(0);
  const Move compute = Compute(4);
  const Move del = Delete(1);
  struct Case {
    RuleViolation violation;
    const Move* move;
    std::string text;
  };
  const Case cases[] = {
      {{SimErrorCode::kNone, kInvalidNode}, nullptr, ""},
      {{SimErrorCode::kNodeOutOfRange, 2}, &load, "M1(v2): node out of range"},
      {{SimErrorCode::kLoadNoBlue, 2}, &load,
       "M1(v2): no blue pebble to copy from"},
      {{SimErrorCode::kLoadAlreadyRed, 2}, &load,
       "M1(v2): node already holds a red pebble"},
      {{SimErrorCode::kStoreNoRed, 0}, &store,
       "M2(v0): no red pebble to copy from"},
      {{SimErrorCode::kStoreAlreadyBlue, 0}, &store,
       "M2(v0): node already holds a blue pebble"},
      {{SimErrorCode::kComputeSource, 4}, &compute,
       "M3(v4): source nodes are inputs and cannot be computed; use M1"},
      {{SimErrorCode::kComputeAlreadyRed, 4}, &compute,
       "M3(v4): node already holds a red pebble"},
      {{SimErrorCode::kComputeParentNotRed, 2}, &compute,
       "M3(v4): parent v2 holds no red pebble"},
      {{SimErrorCode::kDeleteNoRed, 1}, &del,
       "M4(v1): no red pebble to delete"},
      {{SimErrorCode::kBudgetExceeded, 2}, &load,
       "M1(v2): weighted red pebble constraint violated (12 > budget 10)"},
      {{SimErrorCode::kInitialRedOverBudget, kInvalidNode}, nullptr,
       "initial red pebbles already exceed the budget"},
      {{SimErrorCode::kStopConditionUnmet, 4}, nullptr,
       "stopping condition unmet: sink v4 holds no blue pebble"},
      {{SimErrorCode::kReuseConditionUnmet, 3}, nullptr,
       "reuse condition unmet: v3 holds no red pebble at the end"},
  };
  ASSERT_EQ(std::size(cases), std::size(kAllSimErrorCodes));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    EXPECT_EQ(c.violation.code, kAllSimErrorCodes[i]);
    EXPECT_EQ(DescribeViolation(c.violation, c.move, 12, 10), c.text)
        << ToString(c.violation.code);
  }
}

}  // namespace
}  // namespace wrbpg
