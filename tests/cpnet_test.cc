#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpnet/assignment.h"
#include "cpnet/cpnet.h"
#include "cpnet/cpt.h"
#include "cpnet/dominance.h"
#include "cpnet/serialize.h"
#include "doc/builder.h"
#include "oracles/oracles.h"

namespace mmconf::cpnet {
namespace {

using oracles::BruteForceOptimalCompletion;
using oracles::EnumerateCompletions;

TEST(AssignmentTest, Basics) {
  Assignment a(3);
  EXPECT_FALSE(a.IsComplete());
  EXPECT_EQ(a.AssignedCount(), 0u);
  a.Set(0, 1);
  a.Set(2, 0);
  EXPECT_TRUE(a.IsAssigned(0));
  EXPECT_FALSE(a.IsAssigned(1));
  EXPECT_EQ(a.AssignedCount(), 2u);
  EXPECT_EQ(a.ToString(), "[1 * 0]");
  a.Set(1, 2);
  EXPECT_TRUE(a.IsComplete());
  a.Clear(1);
  EXPECT_FALSE(a.IsComplete());
}

TEST(AssignmentTest, Extends) {
  Assignment full(std::vector<ValueId>{1, 0, 2});
  Assignment evidence(3);
  evidence.Set(0, 1);
  EXPECT_TRUE(full.Extends(evidence));
  evidence.Set(1, 1);
  EXPECT_FALSE(full.Extends(evidence));
  Assignment other_size(2);
  EXPECT_FALSE(full.Extends(other_size));
}

TEST(CptTest, RowIndexingIsMixedRadix) {
  Cpt cpt({2, 3}, 2);
  EXPECT_EQ(cpt.num_rows(), 6u);
  EXPECT_EQ(cpt.RowIndex({0, 0}).value(), 0u);
  EXPECT_EQ(cpt.RowIndex({0, 2}).value(), 2u);
  EXPECT_EQ(cpt.RowIndex({1, 0}).value(), 3u);
  EXPECT_EQ(cpt.RowIndex({1, 2}).value(), 5u);
  for (size_t row = 0; row < cpt.num_rows(); ++row) {
    EXPECT_EQ(cpt.RowIndex(cpt.RowValues(row)).value(), row);
  }
}

TEST(CptTest, RowIndexValidation) {
  Cpt cpt({2}, 2);
  EXPECT_TRUE(cpt.RowIndex({}).status().IsInvalidArgument());
  EXPECT_TRUE(cpt.RowIndex({5}).status().IsOutOfRange());
  EXPECT_TRUE(cpt.RowIndex({-1}).status().IsOutOfRange());
}

TEST(CptTest, RankingMustBePermutation) {
  Cpt cpt({}, 3);
  EXPECT_TRUE(cpt.SetRanking(size_t{0}, {0, 1}).IsInvalidArgument());
  EXPECT_TRUE(cpt.SetRanking(size_t{0}, {0, 1, 1}).IsInvalidArgument());
  EXPECT_TRUE(cpt.SetRanking(size_t{0}, {0, 1, 5}).IsInvalidArgument());
  EXPECT_TRUE(cpt.SetRanking(size_t{0}, {2, 0, 1}).ok());
  EXPECT_EQ(cpt.BestValue(0).value(), 2);
  EXPECT_EQ(cpt.RankOf(0, 1).value(), 2);
}

TEST(CptTest, MissingRowsReported) {
  Cpt cpt({2}, 2);
  EXPECT_FALSE(cpt.IsComplete());
  EXPECT_EQ(cpt.MissingRows().size(), 2u);
  EXPECT_TRUE(cpt.Ranking(0).status().IsFailedPrecondition());
  cpt.SetRanking(size_t{0}, {0, 1}).ok();
  EXPECT_EQ(cpt.MissingRows().size(), 1u);
}

TEST(CpNetTest, ValidateRejectsCycles) {
  CpNet net;
  VarId a = net.AddVariable("a", {"0", "1"});
  VarId b = net.AddVariable("b", {"0", "1"});
  ASSERT_TRUE(net.SetParents(a, {b}).ok());
  ASSERT_TRUE(net.SetParents(b, {a}).ok());
  net.SetPreference(a, {0}, {0, 1}).ok();
  net.SetPreference(a, {1}, {0, 1}).ok();
  net.SetPreference(b, {0}, {0, 1}).ok();
  net.SetPreference(b, {1}, {0, 1}).ok();
  EXPECT_TRUE(net.Validate().IsInvalidArgument());
}

TEST(CpNetTest, ValidateRejectsIncompleteCpt) {
  CpNet net;
  VarId a = net.AddVariable("a", {"0", "1"});
  VarId b = net.AddVariable("b", {"0", "1"});
  net.SetParents(b, {a}).ok();
  net.SetUnconditionalPreference(a, {0, 1}).ok();
  net.SetPreference(b, {0}, {1, 0}).ok();
  // Row for a=1 missing.
  EXPECT_TRUE(net.Validate().IsInvalidArgument());
  net.SetPreference(b, {1}, {0, 1}).ok();
  EXPECT_TRUE(net.Validate().ok());
}

TEST(CpNetTest, SelfAndDuplicateParentsRejected) {
  CpNet net;
  VarId a = net.AddVariable("a", {"0", "1"});
  VarId b = net.AddVariable("b", {"0", "1"});
  EXPECT_TRUE(net.SetParents(a, {a}).IsInvalidArgument());
  EXPECT_TRUE(net.SetParents(a, {b, b}).IsInvalidArgument());
}

TEST(CpNetTest, QueriesRequireValidation) {
  CpNet net;
  net.AddVariable("a", {"0", "1"});
  EXPECT_TRUE(net.OptimalOutcome().status().IsFailedPrecondition());
  EXPECT_TRUE(net.TopologicalOrder().status().IsFailedPrecondition());
}

// --- The paper's Figure 2 network ---

class Figure2Test : public ::testing::Test {
 protected:
  void SetUp() override { net_ = doc::MakePaperFigure2Net(); }
  CpNet net_;
};

TEST_F(Figure2Test, OptimalOutcomeMatchesHandDerivation) {
  // Sweep: c1 = c1_1 (index 0), c2 = c2_2 (index 1). c1 and c2 disagree
  // in superscript (1 vs 2) -> (c1_1 ^ c2_2) : c3_2 > c3_1, so c3 = 1.
  // c3 = c3_2 -> c4 = c4_2, c5 = c5_2.
  Assignment optimal = net_.OptimalOutcome().value();
  EXPECT_EQ(optimal.Get(0), 0);
  EXPECT_EQ(optimal.Get(1), 1);
  EXPECT_EQ(optimal.Get(2), 1);
  EXPECT_EQ(optimal.Get(3), 1);
  EXPECT_EQ(optimal.Get(4), 1);
  EXPECT_TRUE(net_.IsOptimal(optimal).value());
}

TEST_F(Figure2Test, EvidenceCompletionFollowsCpts) {
  // Pin c2 = c2_1 (index 0): now c1=c1_1, c2=c2_1 agree -> c3 = c3_1 ->
  // c4 = c4_1, c5 = c5_1.
  Assignment evidence(net_.num_variables());
  evidence.Set(1, 0);
  Assignment completion = net_.OptimalCompletion(evidence).value();
  EXPECT_EQ(completion.Get(0), 0);
  EXPECT_EQ(completion.Get(1), 0);
  EXPECT_EQ(completion.Get(2), 0);
  EXPECT_EQ(completion.Get(3), 0);
  EXPECT_EQ(completion.Get(4), 0);
}

TEST_F(Figure2Test, CompletionRespectsAllEvidence) {
  Assignment evidence(net_.num_variables());
  evidence.Set(2, 0);  // force c3 = c3_1 against the flow
  Assignment completion = net_.OptimalCompletion(evidence).value();
  EXPECT_EQ(completion.Get(2), 0);
  // Children follow the forced parent.
  EXPECT_EQ(completion.Get(3), 0);
  EXPECT_EQ(completion.Get(4), 0);
  // Roots keep their unconditional optima.
  EXPECT_EQ(completion.Get(0), 0);
  EXPECT_EQ(completion.Get(1), 1);
}

TEST_F(Figure2Test, BruteForceAgreesOnAllSingleEvidences) {
  for (VarId v = 0; v < static_cast<VarId>(net_.num_variables()); ++v) {
    for (ValueId value = 0; value < net_.DomainSize(v); ++value) {
      Assignment evidence(net_.num_variables());
      evidence.Set(v, value);
      Assignment sweep = net_.OptimalCompletion(evidence).value();
      Assignment brute =
          BruteForceOptimalCompletion(net_, evidence).value();
      EXPECT_EQ(sweep, brute) << "evidence " << evidence.ToString();
    }
  }
}

TEST_F(Figure2Test, DominanceOptimalBeatsWorst) {
  Assignment optimal = net_.OptimalOutcome().value();
  // The "all superscript-2 values flipped" outcome for roots:
  Assignment worst(std::vector<ValueId>{1, 0, 0, 1, 1});
  EXPECT_EQ(DominanceQuery(net_, optimal, worst).value(),
            Dominance::kDominates);
  EXPECT_EQ(DominanceQuery(net_, worst, optimal).value(),
            Dominance::kNotDominates);
}

TEST_F(Figure2Test, DominanceIsIrreflexive) {
  Assignment optimal = net_.OptimalOutcome().value();
  EXPECT_EQ(DominanceQuery(net_, optimal, optimal).value(),
            Dominance::kNotDominates);
}

TEST_F(Figure2Test, ImprovingFlipsEmptyOnlyAtOptimum) {
  Assignment optimal = net_.OptimalOutcome().value();
  std::vector<Assignment> all =
      EnumerateCompletions(net_, Assignment(net_.num_variables())).value();
  EXPECT_EQ(all.size(), 32u);
  int flip_free = 0;
  for (const Assignment& outcome : all) {
    if (net_.ImprovingFlips(outcome).value().empty()) {
      ++flip_free;
      EXPECT_EQ(outcome, optimal);
    }
  }
  EXPECT_EQ(flip_free, 1);
}

// --- Property tests on random acyclic networks ---

class RandomNetTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetTest, SweepMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  CpNet net = doc::MakeRandomCpNet(/*num_vars=*/7, /*max_parents=*/2,
                                   /*max_domain=*/3, rng);
  ASSERT_TRUE(net.validated());
  // No evidence.
  EXPECT_EQ(net.OptimalOutcome().value(),
            BruteForceOptimalCompletion(net, Assignment(7)).value());
  // Random partial evidence.
  for (int trial = 0; trial < 5; ++trial) {
    Assignment evidence(net.num_variables());
    for (VarId v = 0; v < 7; ++v) {
      if (rng.Chance(0.3)) {
        evidence.Set(v, static_cast<ValueId>(
                            rng.NextBelow(
                                static_cast<uint64_t>(net.DomainSize(v)))));
      }
    }
    Assignment sweep = net.OptimalCompletion(evidence).value();
    Assignment brute = BruteForceOptimalCompletion(net, evidence).value();
    EXPECT_EQ(sweep, brute) << "seed " << GetParam() << " evidence "
                            << evidence.ToString();
    EXPECT_TRUE(sweep.Extends(evidence));
  }
}

TEST_P(RandomNetTest, OptimalOutcomeDominatesRandomOutcomes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  CpNet net = doc::MakeRandomCpNet(5, 2, 2, rng);
  Assignment optimal = net.OptimalOutcome().value();
  for (int trial = 0; trial < 3; ++trial) {
    Assignment random(net.num_variables());
    for (VarId v = 0; v < 5; ++v) {
      random.Set(v, static_cast<ValueId>(rng.NextBelow(
                        static_cast<uint64_t>(net.DomainSize(v)))));
    }
    if (random == optimal) continue;
    EXPECT_EQ(DominanceQuery(net, optimal, random).value(),
              Dominance::kDominates)
        << "outcome " << random.ToString();
  }
}

TEST_P(RandomNetTest, SerializeRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  CpNet net = doc::MakeRandomCpNet(6, 2, 3, rng);
  std::string text = ToText(net);
  CpNet parsed = FromText(text).value();
  ASSERT_EQ(parsed.num_variables(), net.num_variables());
  EXPECT_EQ(parsed.OptimalOutcome().value(), net.OptimalOutcome().value());
  // Round-trip again: text form is a fixed point.
  EXPECT_EQ(ToText(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetTest,
                         ::testing::Range(1, 21));

TEST(SerializeTest, Figure2RoundTrip) {
  CpNet net = doc::MakePaperFigure2Net();
  CpNet parsed = FromText(ToText(net)).value();
  EXPECT_EQ(parsed.OptimalOutcome().value(), net.OptimalOutcome().value());
  EXPECT_EQ(parsed.VariableName(2), "c3");
  EXPECT_EQ(parsed.Parents(2).size(), 2u);
}

TEST(SerializeTest, ParseErrors) {
  EXPECT_TRUE(FromText("").status().IsInvalidArgument());
  EXPECT_TRUE(FromText("cpnet 2\nend\n").status().IsInvalidArgument());
  EXPECT_TRUE(FromText("cpnet 1\nvar a 2 x y\n").status()
                  .IsInvalidArgument());  // no end
  EXPECT_TRUE(FromText("cpnet 1\nvar a 3 x y\nend\n")
                  .status()
                  .IsInvalidArgument());  // count mismatch
  EXPECT_TRUE(FromText("cpnet 1\nvar a 2 x y\nvar a 2 x y\nend\n")
                  .status()
                  .IsInvalidArgument());  // duplicate
  EXPECT_TRUE(FromText("cpnet 1\nvar a 2 x y\nbogus\nend\n")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(Figure2Test, ImprovingSequenceIsAValidProof) {
  Assignment optimal = net_.OptimalOutcome().value();
  Assignment worst(std::vector<ValueId>{1, 0, 0, 1, 1});
  std::vector<Assignment> path =
      FindImprovingSequence(net_, optimal, worst).value();
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), worst);
  EXPECT_EQ(path.back(), optimal);
  // Every step flips exactly one variable, and to a strictly better
  // value per the CPT (i.e. the flip appears in ImprovingFlips).
  for (size_t i = 1; i < path.size(); ++i) {
    int changed = 0;
    VarId changed_var = -1;
    for (size_t v = 0; v < path[i].size(); ++v) {
      if (path[i].Get(static_cast<VarId>(v)) !=
          path[i - 1].Get(static_cast<VarId>(v))) {
        ++changed;
        changed_var = static_cast<VarId>(v);
      }
    }
    EXPECT_EQ(changed, 1);
    std::vector<Flip> flips = net_.ImprovingFlips(path[i - 1]).value();
    bool legal = false;
    for (const Flip& flip : flips) {
      if (flip.var == changed_var &&
          flip.better == path[i].Get(changed_var)) {
        legal = true;
      }
    }
    EXPECT_TRUE(legal) << "step " << i << " is not an improving flip";
  }
}

TEST_F(Figure2Test, ImprovingSequenceFailsDownhill) {
  Assignment optimal = net_.OptimalOutcome().value();
  Assignment worst(std::vector<ValueId>{1, 0, 0, 1, 1});
  EXPECT_TRUE(FindImprovingSequence(net_, worst, optimal)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(FindImprovingSequence(net_, optimal, optimal)
                  .status()
                  .IsNotFound());
}

TEST_P(RandomNetTest, ImprovingSequenceAgreesWithDominance) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  CpNet net = doc::MakeRandomCpNet(5, 2, 2, rng);
  Assignment a(net.num_variables()), b(net.num_variables());
  for (VarId v = 0; v < 5; ++v) {
    a.Set(v, static_cast<ValueId>(
                 rng.NextBelow(static_cast<uint64_t>(net.DomainSize(v)))));
    b.Set(v, static_cast<ValueId>(
                 rng.NextBelow(static_cast<uint64_t>(net.DomainSize(v)))));
  }
  if (a == b) return;
  Dominance verdict = DominanceQuery(net, a, b).value();
  Result<std::vector<Assignment>> path = FindImprovingSequence(net, a, b);
  if (verdict == Dominance::kDominates) {
    EXPECT_TRUE(path.ok());
  } else if (verdict == Dominance::kNotDominates) {
    EXPECT_TRUE(path.status().IsNotFound());
  }
}

TEST_F(Figure2Test, CompareOutcomesCoversAllRelations) {
  Assignment optimal = net_.OptimalOutcome().value();
  Assignment worst(std::vector<ValueId>{1, 0, 0, 1, 1});
  EXPECT_EQ(CompareOutcomes(net_, optimal, optimal).value(),
            OutcomeRelation::kEqual);
  EXPECT_EQ(CompareOutcomes(net_, optimal, worst).value(),
            OutcomeRelation::kFirstPreferred);
  EXPECT_EQ(CompareOutcomes(net_, worst, optimal).value(),
            OutcomeRelation::kSecondPreferred);
  // Two one-flip-from-optimal outcomes differing in independent root
  // variables are incomparable (CP-nets are partial orders).
  Assignment flip_c1 = optimal;
  flip_c1.Set(0, 1 - optimal.Get(0));
  Assignment flip_c2 = optimal;
  flip_c2.Set(1, 1 - optimal.Get(1));
  EXPECT_EQ(CompareOutcomes(net_, flip_c1, flip_c2).value(),
            OutcomeRelation::kIncomparable);
}

TEST(CpNetTest, ConfigurationSpaceSize) {
  CpNet net;
  net.AddVariable("a", {"0", "1"});
  net.AddVariable("b", {"0", "1", "2"});
  EXPECT_EQ(net.ConfigurationSpaceSize(), 6u);
}

}  // namespace
}  // namespace mmconf::cpnet
