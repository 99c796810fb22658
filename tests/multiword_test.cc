// The exact search past one 64-bit word per color.
//
// A wide configuration keeps node v in word v >> 6, bit v & 63, and the
// search, its A* bound and the state interner all index those words. On
// graphs of at most 64 nodes every index is word 0, so a wrong word index
// only shows past 64 nodes: these tests run the interner at 342 words per
// color, the bound on relabeled 190- and 255-node graphs (3 and 4 words),
// and one exact solve on a relabeled 70-node chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/analysis.h"
#include "core/move.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/state_bound.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/canonical.h"
#include "robust/fault_injector.h"
#include "schedulers/belady.h"
#include "schedulers/brute_force.h"
#include "schedulers/search_frontier.h"
#include "tests/permute_graph.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace wrbpg {
namespace {

constexpr std::size_t kKiB = 1024;

// A chunk holds at most 64 KiB at every width, so a shard's first state
// no longer costs 4,096 states' worth of words (22.4 MB at 342 words per
// color).
TEST(StateInterner, ChunkBytesDoNotGrowWithWidth) {
  StateInterner narrow(2);  // one word per color: 4,096 states per chunk
  const std::uint64_t small[2] = {1, 2};
  SearchState id = 0;
  ASSERT_TRUE(narrow.Intern(small, &id));
  EXPECT_GE(narrow.MemoryBytes(), 64 * kKiB);
  EXPECT_LT(narrow.MemoryBytes(), 2 * 64 * kKiB);

  StateInterner wide(2 * 342);  // 8 states per chunk
  const std::vector<std::uint64_t> config(2 * 342, 7);
  ASSERT_TRUE(wide.Intern(config.data(), &id));
  EXPECT_LE(wide.MemoryBytes(), 128 * kKiB);
}

// Enough configurations that most of the 64 shards fill more than one
// 8-state chunk, so Words() and Find() cross chunk boundaries.
TEST(StateInterner, WideConfigurationsReadBackIntact) {
  constexpr std::size_t kWords = 2 * 342;
  StateInterner interner(kWords);
  Rng rng(0x342u);
  std::vector<std::vector<std::uint64_t>> configs(640);
  std::vector<SearchState> ids;
  for (std::vector<std::uint64_t>& config : configs) {
    config.resize(kWords);
    for (std::uint64_t& word : config) word = rng.Next();
    SearchState id = 0;
    ASSERT_TRUE(interner.Intern(config.data(), &id));
    ids.push_back(id);
  }
  EXPECT_EQ(interner.size(), configs.size());
  EXPECT_EQ(std::set<SearchState>(ids.begin(), ids.end()).size(),
            configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::uint64_t* words = interner.Words(ids[i]);
    EXPECT_EQ(std::vector<std::uint64_t>(words, words + kWords), configs[i])
        << "config " << i;
    SearchState found = 0;
    ASSERT_TRUE(interner.Find(configs[i].data(), &found)) << "config " << i;
    EXPECT_EQ(found, ids[i]);
    SearchState again = 0;
    ASSERT_TRUE(interner.Intern(configs[i].data(), &again));
    EXPECT_EQ(again, ids[i]);
  }
  EXPECT_EQ(interner.size(), configs.size());
}

bool Has(const std::vector<std::uint64_t>& mask, NodeId v) {
  return ((mask[v >> 6] >> (v & 63)) & 1) != 0;
}
void Flip(std::vector<std::uint64_t>& mask, NodeId v) {
  mask[v >> 6] ^= 1ull << (v & 63);
}

// Mirrors the simulator's per-move legality, budget check included.
bool Legal(const Graph& graph, const std::vector<std::uint64_t>& red,
           const std::vector<std::uint64_t>& blue, Weight red_weight,
           Weight budget, MoveType type, NodeId v) {
  switch (type) {
    case MoveType::kLoad:
      return Has(blue, v) && !Has(red, v) &&
             red_weight + graph.weight(v) <= budget;
    case MoveType::kStore:
      return Has(red, v) && !Has(blue, v);
    case MoveType::kCompute: {
      if (graph.is_source(v) || Has(red, v) ||
          red_weight + graph.weight(v) > budget) {
        return false;
      }
      for (const NodeId p : graph.parents(v)) {
        if (!Has(red, p)) return false;
      }
      return true;
    }
    case MoveType::kDelete:
      return Has(red, v);
  }
  return false;
}

// Replays a valid schedule of the relabeled `graph` and a FaultInjector
// corpus of near-valid mutants, stopping each at its first illegal move,
// and checks at every distinct prefix state that
//   - wide EvaluateMove equals a fresh Evaluate for every legal move, and
//   - Evaluate equals the unrelabeled graph's value at the mapped state.
void CheckPastOneWord(const Graph& original, std::uint64_t seed,
                      std::size_t expected_words, const std::string& name) {
  const Graph graph = testing::PermuteGraph(original, seed);
  const std::optional<std::vector<NodeId>> to_original =
      FindIsomorphism(graph, original);
  ASSERT_TRUE(to_original.has_value()) << name;
  const NodeId n = graph.num_nodes();
  const std::size_t W = (n + 63) / 64;
  const Weight budget = MinValidBudget(graph) + 2 * graph.weight(0);
  ASSERT_EQ(StateBound(graph, budget, 0, true).WordsPerColor(),
            expected_words)
      << name;
  const ScheduleResult seed_run = BeladyScheduler(graph).Run(budget);
  ASSERT_TRUE(seed_run.feasible) << name;
  ASSERT_TRUE(Simulate(graph, budget, seed_run.schedule).valid) << name;

  StateBound::WideScratch scratch;
  std::set<std::tuple<Weight, std::vector<std::uint64_t>,
                      std::vector<std::uint64_t>>>
      seen;
  std::size_t states_checked = 0;
  std::size_t moves_checked = 0;

  auto check_state = [&](const StateBound& bound, const StateBound& reference,
                         Weight b, const std::vector<std::uint64_t>& red,
                         const std::vector<std::uint64_t>& blue,
                         Weight red_weight, const std::string& label) {
    if (!seen.insert({b, red, blue}).second) return;
    ++states_checked;
    std::vector<std::uint64_t> mred(W, 0);
    std::vector<std::uint64_t> mblue(W, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (Has(red, v)) Flip(mred, (*to_original)[v]);
      if (Has(blue, v)) Flip(mblue, (*to_original)[v]);
    }
    const Weight h = bound.Evaluate(red.data(), blue.data(), scratch);
    EXPECT_EQ(h, reference.Evaluate(mred.data(), mblue.data(), scratch))
        << label << ": relabeled value differs";

    StateBound::WideCtx ctx;
    bound.Prepare(red.data(), blue.data(), ctx, scratch);
    for (NodeId v = 0; v < n; ++v) {
      for (const MoveType type : {MoveType::kLoad, MoveType::kStore,
                                  MoveType::kCompute, MoveType::kDelete}) {
        if (!Legal(graph, red, blue, red_weight, b, type, v)) continue;
        std::vector<std::uint64_t> nred = red;
        std::vector<std::uint64_t> nblue = blue;
        Flip(type == MoveType::kStore ? nblue : nred, v);
        ++moves_checked;
        EXPECT_EQ(bound.EvaluateMove(ctx, red.data(), blue.data(), type, v,
                                     scratch),
                  bound.Evaluate(nred.data(), nblue.data(), scratch))
            << label << ": " << ToString(Move{type, v});
      }
    }
  };

  auto replay = [&](const Schedule& sched, Weight b, const std::string& label) {
    const StateBound bound(graph, b, /*required_red=*/0,
                           /*require_sinks_blue=*/true);
    const StateBound reference(original, b, /*required_red=*/0,
                               /*require_sinks_blue=*/true);
    std::vector<std::uint64_t> red(W, 0);
    std::vector<std::uint64_t> blue(W, 0);
    for (const NodeId s : graph.sources()) Flip(blue, s);
    Weight red_weight = 0;
    check_state(bound, reference, b, red, blue, red_weight, label);
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Move& m = sched[i];
      if (m.node >= n ||
          !Legal(graph, red, blue, red_weight, b, m.type, m.node)) {
        break;
      }
      Flip(m.type == MoveType::kStore ? blue : red, m.node);
      if (m.type == MoveType::kLoad || m.type == MoveType::kCompute) {
        red_weight += graph.weight(m.node);
      } else if (m.type == MoveType::kDelete) {
        red_weight -= graph.weight(m.node);
      }
      check_state(bound, reference, b, red, blue, red_weight,
                  label + " after move " + std::to_string(i));
    }
  };

  replay(seed_run.schedule, budget, name + " baseline");
  const FaultInjector injector(graph, budget, seed_run.schedule);
  Rng rng(seed);
  for (const FaultCase& fc : injector.Corpus(rng, 4)) {
    replay(fc.schedule, fc.budget, name + " " + fc.label);
  }
  EXPECT_GE(states_checked, 2 * static_cast<std::size_t>(n)) << name;
  EXPECT_GE(moves_checked, 10 * states_checked) << name;
}

TEST(StateBoundMultiWord, IncrementalMatchesFreshOnRelabeledKary) {
  CheckPastOneWord(BuildPerfectTree(2, 7).graph, 0x2a7u, 4, "kary(2,7)");
}

TEST(StateBoundMultiWord, IncrementalMatchesFreshOnRelabeledDwt) {
  CheckPastOneWord(BuildDwt(64, 6).graph, 0x646u, 3, "dwt(64,6)");
}

// One exact solve past 64 nodes: at budget 2 a unit chain slides its two
// red pebbles along, so the optimum loads the source and stores the sink.
TEST(BruteForceMultiWord, RelabeledSeventyNodeChainSolvesToCostTwo) {
  const Graph chain = testing::PermuteGraph(testing::MakeChain(70, 1), 0x70u);
  std::vector<Schedule> schedules;
  for (const SearchEngine engine :
       {SearchEngine::kAStar, SearchEngine::kBranchAndBound}) {
    BruteForceOptions options;
    options.engine = engine;
    options.threads = 1;
    const ScheduleResult result = BruteForceScheduler(chain).Run(2, options);
    ASSERT_TRUE(result.feasible) << ToString(engine);
    EXPECT_EQ(result.cost, 2u) << ToString(engine);
    EXPECT_EQ(result.termination, Termination::kOptimal) << ToString(engine);
    testing::ExpectValid(chain, 2, result.schedule);
    schedules.push_back(result.schedule);
  }
  EXPECT_EQ(schedules[0], schedules[1]);
}

}  // namespace
}  // namespace wrbpg
