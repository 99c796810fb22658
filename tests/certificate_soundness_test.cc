// Exhaustive soundness check of the bound certificates (DESIGN.md §12):
// on every small-corpus graph, at EVERY budget in the valid band, each
// certificate's value must not exceed the exact optimum, and each witness
// must re-verify through the independent checker. The paper instances
// additionally pin strict dominance over Prop 2.4 at their minimum valid
// budgets, with tightness against the closed-form DPs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.h"
#include "dataflows/butterfly_graph.h"
#include "dataflows/dwt_graph.h"
#include "dataflows/tree_graph.h"
#include "ganalysis/bounds.h"
#include "robust/robust_scheduler.h"
#include "schedulers/brute_force.h"
#include "schedulers/dwt_optimal.h"
#include "schedulers/kary_tree.h"
#include "tests/test_helpers.h"

namespace wrbpg {
namespace {

struct Case {
  std::string name;
  Graph graph;
};

std::vector<Case> SmallCorpus() {
  std::vector<Case> corpus;
  corpus.push_back({"diamond", testing::MakeDiamond({3, 5, 7, 11, 13})});
  corpus.push_back({"chain6", testing::MakeChain(6, 4)});
  corpus.push_back({"kary(2,3)", BuildPerfectTree(2, 3).graph});
  corpus.push_back({"kary(3,2)", BuildPerfectTree(3, 2).graph});
  corpus.push_back({"dwt(4,1)", BuildDwt(4, 1).graph});
  corpus.push_back({"dwt(8,2)", BuildDwt(8, 2).graph});
  corpus.push_back({"butterfly(4)", BuildButterfly(4).graph});
  return corpus;
}

// Every certificate at every budget in [MinValidBudget, MinValidBudget+8]
// is at most the exact optimum and carries a witness the independent
// verifier accepts.
TEST(CertificateSoundness, NeverExceedsExactOptimumAcrossBudgetBand) {
  for (const Case& c : SmallCorpus()) {
    const Weight min_budget = MinValidBudget(c.graph);
    const BruteForceScheduler oracle(c.graph);
    for (Weight budget = min_budget; budget <= min_budget + 8; ++budget) {
      const Weight optimum = oracle.CostOnly(budget);
      ASSERT_LT(optimum, kInfiniteCost)
          << c.name << " infeasible at " << budget;
      for (const BoundCertificate& cert :
           ComputeBoundCertificates(c.graph, budget)) {
        const CertificateCheck check = VerifyCertificate(c.graph, cert);
        EXPECT_TRUE(check.ok)
            << c.name << " @" << budget << " " << ToString(cert.kind)
            << ": " << check.error;
        EXPECT_LE(cert.value, optimum)
            << c.name << " @" << budget << " " << ToString(cert.kind)
            << " claims " << cert.value << " > optimum " << optimum;
        EXPECT_GE(cert.value, AlgorithmicLowerBound(c.graph));
        EXPECT_EQ(cert.value, cert.base + cert.excess);
      }
      EXPECT_LE(BestCertifiedBound(c.graph, budget), optimum);
    }
  }
}

// kary(2,3) plus one isolated 32-bit node. The node starts blue and so
// needs no I/O, but the Prop 2.4 bound once counted it as a source and a
// sink: at budget 48 a bb run capped at one state, and the robust chain
// with the same exact-stage cap, shipped Belady's 304-bit schedule as
// proven optimal against a true optimum of 240. Every bound the search
// layer reports must stay at or below the exact optimum.
TEST(CertificateSoundness, IsolatedNodeAddsNoBound) {
  const Graph tree = BuildPerfectTree(2, 3).graph;
  const Graph g = testing::WithIsolatedNode(tree, 32);
  EXPECT_EQ(AlgorithmicLowerBound(g), AlgorithmicLowerBound(tree));

  BruteForceOptions dijkstra;
  dijkstra.engine = SearchEngine::kDijkstra;
  RobustOptions robust;
  robust.exact_max_states = 1;
  robust.threads = 1;
  const Weight expected[] = {240, 176, 144, 144};
  for (Weight budget = 48; budget <= 96; budget += 16) {
    const Weight optimum = BruteForceScheduler(g).Run(budget, dijkstra).cost;
    EXPECT_EQ(optimum, expected[(budget - 48) / 16]) << "@" << budget;
    for (const BoundCertificate& cert : ComputeBoundCertificates(g, budget)) {
      EXPECT_TRUE(VerifyCertificate(g, cert).ok)
          << "@" << budget << " " << ToString(cert.kind);
      EXPECT_LE(cert.value, optimum)
          << "@" << budget << " " << ToString(cert.kind);
    }

    BruteForceOptions capped;
    capped.engine = SearchEngine::kBranchAndBound;
    capped.max_states = 1;
    capped.threads = 1;
    capped.root_lower_bound = BestCertifiedBound(g, budget);
    const ScheduleResult bb = BruteForceScheduler(g).Run(budget, capped);
    ASSERT_TRUE(bb.feasible) << "@" << budget;
    EXPECT_LE(bb.lower_bound, optimum) << "bb @" << budget;

    const RobustResult chain = RobustScheduler(g).Run(budget, robust);
    ASSERT_TRUE(chain.result.feasible) << "@" << budget;
    EXPECT_LE(chain.result.lower_bound, optimum) << "robust @" << budget;
  }
}

// The segment certificate extends the wavefront picks, so it can never be
// the smaller of the two.
TEST(CertificateSoundness, SegmentDominatesWavefront) {
  for (const Case& c : SmallCorpus()) {
    const Weight min_budget = MinValidBudget(c.graph);
    for (Weight budget = min_budget; budget <= min_budget + 8; ++budget) {
      EXPECT_GE(SegmentCertificate(c.graph, budget).value,
                WavefrontCertificate(c.graph, budget).value)
          << c.name << " @" << budget;
    }
  }
}

// Paper instance dwt(16,2): at the minimum valid budget (48) the
// budget-aware certificates reach 640 — strictly above the Prop 2.4
// bound of 512 and exactly the Algorithm 1 optimum (the bound is tight).
TEST(CertificateSoundness, StrictDominanceAndTightnessOnDwt16x2) {
  const DwtGraph dwt = BuildDwt(16, 2);
  const Weight min_budget = MinValidBudget(dwt.graph);
  ASSERT_EQ(min_budget, 48);
  EXPECT_EQ(AlgorithmicLowerBound(dwt.graph), 512);
  for (Weight budget = min_budget; budget <= min_budget + 4; ++budget) {
    const Weight best = BestCertifiedBound(dwt.graph, budget);
    const Weight optimum = DwtOptimalScheduler(dwt).CostOnly(budget);
    EXPECT_GT(best, AlgorithmicLowerBound(dwt.graph)) << "@" << budget;
    EXPECT_EQ(best, optimum) << "@" << budget;  // tight on this band
  }
  EXPECT_EQ(BestCertifiedBound(dwt.graph, 48), 640);
}

// Paper instance kary(2,4): ALB 272, wavefront 400, segment 496 — the
// segment certificate equals the k-ary DP optimum at budget 48.
TEST(CertificateSoundness, StrictDominanceAndTightnessOnKary2x4) {
  const Graph tree = BuildPerfectTree(2, 4).graph;
  ASSERT_EQ(MinValidBudget(tree), 48);
  EXPECT_EQ(AlgorithmicLowerBound(tree), 272);
  EXPECT_EQ(WavefrontCertificate(tree, 48).value, 400);
  EXPECT_EQ(SegmentCertificate(tree, 48).value, 496);
  EXPECT_EQ(KaryTreeScheduler(tree).CostOnly(48), 496);
}

// At a budget wide enough to hold every hold-footprint, the excess terms
// vanish and all certificates degrade to the algorithmic bound.
TEST(CertificateSoundness, DegradesToAlgorithmicAtLargeBudgets) {
  for (const Case& c : SmallCorpus()) {
    const Weight huge = c.graph.total_weight() * 2;
    for (const BoundCertificate& cert :
         ComputeBoundCertificates(c.graph, huge)) {
      EXPECT_EQ(cert.value, AlgorithmicLowerBound(c.graph))
          << c.name << " " << ToString(cert.kind);
      EXPECT_TRUE(VerifyCertificate(c.graph, cert).ok);
    }
  }
}

// The verifier is genuinely independent: tampering with a witness in any
// dimension — inflated price, wrong parent set, duplicated charge — is
// rejected.
TEST(CertificateVerifier, RejectsTamperedWitnesses) {
  const Graph g = BuildDwt(16, 2).graph;
  const BoundCertificate honest = SegmentCertificate(g, 48);
  ASSERT_FALSE(honest.groups.empty());
  ASSERT_TRUE(VerifyCertificate(g, honest).ok);

  {
    BoundCertificate inflated = honest;
    inflated.groups[0].min_price += 1;
    inflated.excess += 1;
    inflated.value += 1;
    EXPECT_FALSE(VerifyCertificate(g, inflated).ok);
  }
  {
    BoundCertificate wrong_arithmetic = honest;
    wrong_arithmetic.value += 8;
    EXPECT_FALSE(VerifyCertificate(g, wrong_arithmetic).ok);
  }
  {
    BoundCertificate short_parents = honest;
    short_parents.groups[0].parents.pop_back();
    EXPECT_FALSE(VerifyCertificate(g, short_parents).ok);
  }
  {
    BoundCertificate duplicated = honest;
    duplicated.groups.push_back(duplicated.groups[0]);
    duplicated.excess += duplicated.groups[0].min_price;
    duplicated.value += duplicated.groups[0].min_price;
    EXPECT_FALSE(VerifyCertificate(g, duplicated).ok);  // disjointness
  }
  {
    BoundCertificate wide_budget = honest;
    wide_budget.budget = g.total_weight() * 2;  // footprints now fit
    EXPECT_FALSE(VerifyCertificate(g, wide_budget).ok);
  }
}

}  // namespace
}  // namespace wrbpg
