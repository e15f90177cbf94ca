#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cpnet/cpnet.h"
#include "doc/builder.h"
#include "oracles/oracles.h"

namespace mmconf::cpnet {
namespace {

using mmconf::Rng;
using oracles::BruteForceRecompleteFrom;

/// Pins to exercise for one random net: a root, a leaf, and a mid-chain
/// variable (when the net is deep enough), plus a couple of random picks.
std::vector<VarId> PinsToTry(const CpNet& net, Rng& rng) {
  std::vector<VarId> pins;
  VarId root = -1, leaf = -1;
  for (size_t v = 0; v < net.num_variables(); ++v) {
    VarId var = static_cast<VarId>(v);
    if (root < 0 && net.Parents(var).empty()) root = var;
    if (net.Children(var).empty()) leaf = var;  // last childless var
  }
  if (root >= 0) pins.push_back(root);
  if (leaf >= 0 && leaf != root) pins.push_back(leaf);
  VarId mid = static_cast<VarId>(net.num_variables() / 2);
  if (mid != root && mid != leaf) pins.push_back(mid);
  pins.push_back(static_cast<VarId>(
      rng.NextBelow(static_cast<uint64_t>(net.num_variables()))));
  return pins;
}

TEST(RecompleteFromTest, AgreesWithOptimalCompletionOnRandomNets) {
  Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    CpNet net = doc::MakeRandomCpNet(/*num_vars=*/8, /*max_parents=*/3,
                                     /*max_domain=*/3, rng);
    Result<Assignment> base = net.OptimalOutcome();
    ASSERT_TRUE(base.ok()) << base.status().message();
    for (VarId pinned : PinsToTry(net, rng)) {
      for (ValueId value = 0; value < net.DomainSize(pinned); ++value) {
        Result<Assignment> incremental =
            net.RecompleteFrom(*base, pinned, value);
        ASSERT_TRUE(incremental.ok()) << incremental.status().message();
        Assignment evidence(net.num_variables());
        evidence.Set(pinned, value);
        Result<Assignment> full = net.OptimalCompletion(evidence);
        ASSERT_TRUE(full.ok()) << full.status().message();
        EXPECT_EQ(*incremental, *full)
            << "trial " << trial << " pinned " << pinned << "=" << value;
      }
    }
  }
}

TEST(RecompleteFromTest, AgreesWithBruteForceOnSmallNets) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    CpNet net = doc::MakeRandomCpNet(/*num_vars=*/5, /*max_parents=*/2,
                                     /*max_domain=*/3, rng);
    Result<Assignment> base = net.OptimalOutcome();
    ASSERT_TRUE(base.ok()) << base.status().message();
    Assignment empty(net.num_variables());
    for (size_t v = 0; v < net.num_variables(); ++v) {
      VarId pinned = static_cast<VarId>(v);
      for (ValueId value = 0; value < net.DomainSize(pinned); ++value) {
        Result<Assignment> incremental =
            net.RecompleteFrom(*base, pinned, value);
        ASSERT_TRUE(incremental.ok()) << incremental.status().message();
        Result<Assignment> oracle =
            BruteForceRecompleteFrom(net, empty, pinned, value);
        ASSERT_TRUE(oracle.ok()) << oracle.status().message();
        EXPECT_EQ(*incremental, *oracle)
            << "trial " << trial << " pinned " << pinned << "=" << value;
      }
    }
  }
}

TEST(RecompleteFromTest, DifferentialFuzzAgainstBruteForce) {
  // Differential fuzz of the flat arena + watched propagation against the
  // exhaustive oracle, across net shapes: arity (max parents per
  // variable) x depth (variable count) x domain size. Every single
  // (variable, value) pin goes through the allocation-free RecompleteInto
  // path and must land byte-identical to BruteForceRecompleteFrom.
  Rng rng(20260808);
  for (int max_parents : {1, 2, 4}) {
    for (int num_vars : {3, 5, 7}) {
      for (int max_domain : {2, 4}) {
        for (int trial = 0; trial < 4; ++trial) {
          CpNet net =
              doc::MakeRandomCpNet(num_vars, max_parents, max_domain, rng);
          Result<Assignment> base = net.OptimalOutcome();
          ASSERT_TRUE(base.ok()) << base.status().message();
          Assignment empty(net.num_variables());
          Assignment scratch;
          for (size_t v = 0; v < net.num_variables(); ++v) {
            VarId pinned = static_cast<VarId>(v);
            for (ValueId value = 0; value < net.DomainSize(pinned);
                 ++value) {
              ASSERT_TRUE(
                  net.RecompleteInto(*base, pinned, value, &scratch).ok());
              Result<Assignment> oracle =
                  BruteForceRecompleteFrom(net, empty, pinned, value);
              ASSERT_TRUE(oracle.ok()) << oracle.status().message();
              EXPECT_EQ(scratch, *oracle)
                  << "arity " << max_parents << " vars " << num_vars
                  << " domain " << max_domain << " trial " << trial
                  << " pinned " << pinned << "=" << value;
            }
          }
        }
      }
    }
  }
}

TEST(RecompleteFromTest, HonorsEvidenceOutsideTheCone) {
  // Base computed under evidence is a valid starting point as long as
  // the evidence assigns nothing inside the pinned variable's cone.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    CpNet net = doc::MakeRandomCpNet(/*num_vars=*/7, /*max_parents=*/2,
                                     /*max_domain=*/3, rng);
    // Pick a pinned variable, then evidence on a variable outside its
    // descendant cone (if none exists, skip the trial).
    VarId pinned = static_cast<VarId>(
        rng.NextBelow(static_cast<uint64_t>(net.num_variables())));
    std::span<const VarId> cone = net.DescendantCone(pinned);
    VarId outside = -1;
    for (size_t v = 0; v < net.num_variables(); ++v) {
      VarId var = static_cast<VarId>(v);
      bool in_cone = false;
      for (VarId c : cone) {
        if (c == var) {
          in_cone = true;
          break;
        }
      }
      if (!in_cone) {
        outside = var;
        break;
      }
    }
    if (outside < 0) continue;
    Assignment evidence(net.num_variables());
    evidence.Set(outside, net.DomainSize(outside) - 1);
    Result<Assignment> base = net.OptimalCompletion(evidence);
    ASSERT_TRUE(base.ok()) << base.status().message();
    for (ValueId value = 0; value < net.DomainSize(pinned); ++value) {
      Result<Assignment> incremental =
          net.RecompleteFrom(*base, pinned, value);
      ASSERT_TRUE(incremental.ok()) << incremental.status().message();
      Assignment extended = evidence;
      extended.Set(pinned, value);
      Result<Assignment> full = net.OptimalCompletion(extended);
      ASSERT_TRUE(full.ok()) << full.status().message();
      EXPECT_EQ(*incremental, *full) << "trial " << trial;
    }
  }
}

TEST(RecompleteFromTest, PaperFigure2Worked) {
  CpNet net = doc::MakePaperFigure2Net();
  Result<Assignment> base = net.OptimalOutcome();
  ASSERT_TRUE(base.ok());
  // Unconstrained optimum of Figure 2: c1=c1^1, c2=c2^2 (disagree), so
  // c3=c3^2, and then c4=c4^2, c5=c5^2.
  EXPECT_EQ(base->Get(0), 0);
  EXPECT_EQ(base->Get(1), 1);
  EXPECT_EQ(base->Get(2), 1);
  // Pin c3 to c3^1: only c4 and c5 (its children) may move.
  Result<Assignment> repinned = net.RecompleteFrom(*base, 2, 0);
  ASSERT_TRUE(repinned.ok());
  EXPECT_EQ(repinned->Get(0), base->Get(0));
  EXPECT_EQ(repinned->Get(1), base->Get(1));
  EXPECT_EQ(repinned->Get(2), 0);
  EXPECT_EQ(repinned->Get(3), 0);  // c3^1 -> c4^1 > c4^2
  EXPECT_EQ(repinned->Get(4), 0);  // c3^1 -> c5^1 > c5^2
}

TEST(RecompleteFromTest, ScratchReuseMatchesFreshResults) {
  Rng rng(5);
  CpNet net = doc::MakeRandomCpNet(/*num_vars=*/10, /*max_parents=*/3,
                                   /*max_domain=*/4, rng);
  Result<Assignment> base = net.OptimalOutcome();
  ASSERT_TRUE(base.ok());
  Assignment scratch(1);  // deliberately wrong-sized; Into must resize
  for (size_t v = 0; v < net.num_variables(); ++v) {
    VarId pinned = static_cast<VarId>(v);
    for (ValueId value = 0; value < net.DomainSize(pinned); ++value) {
      ASSERT_TRUE(net.RecompleteInto(*base, pinned, value, &scratch).ok());
      Result<Assignment> fresh = net.RecompleteFrom(*base, pinned, value);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(scratch, *fresh);
    }
  }
}

TEST(RecompleteFromTest, DescendantConeIsTopologicalAndStartsAtPin) {
  CpNet net = doc::MakePaperFigure2Net();
  // c3's cone is {c3, c4, c5}; c1's cone contains c1, c3, c4, c5.
  std::span<const VarId> c3_cone = net.DescendantCone(2);
  ASSERT_FALSE(c3_cone.empty());
  EXPECT_EQ(c3_cone.front(), 2);
  EXPECT_EQ(c3_cone.size(), 3u);
  std::span<const VarId> c1_cone = net.DescendantCone(0);
  EXPECT_EQ(c1_cone.front(), 0);
  EXPECT_EQ(c1_cone.size(), 4u);
  // Leaves' cones are singletons.
  EXPECT_EQ(net.DescendantCone(4).size(), 1u);
}

TEST(RecompleteFromTest, ErrorCases) {
  CpNet net = doc::MakePaperFigure2Net();
  Result<Assignment> base = net.OptimalOutcome();
  ASSERT_TRUE(base.ok());
  // Out-of-range variable and value.
  EXPECT_TRUE(net.RecompleteFrom(*base, 99, 0).status().IsOutOfRange());
  EXPECT_TRUE(net.RecompleteFrom(*base, 0, 7).status().IsOutOfRange());
  // Incomplete base.
  Assignment partial(net.num_variables());
  EXPECT_FALSE(net.RecompleteFrom(partial, 0, 0).ok());
  // Null out.
  EXPECT_FALSE(net.RecompleteInto(*base, 0, 0, nullptr).ok());
}

TEST(BruteForceRecompleteFromTest, ValidatesArguments) {
  CpNet net = doc::MakePaperFigure2Net();
  Assignment empty(net.num_variables());
  EXPECT_TRUE(
      BruteForceRecompleteFrom(net, empty, 99, 0).status().IsOutOfRange());
  EXPECT_TRUE(
      BruteForceRecompleteFrom(net, empty, 0, 9).status().IsOutOfRange());
  Assignment wrong(2);
  EXPECT_FALSE(BruteForceRecompleteFrom(net, wrong, 0, 0).ok());
}

}  // namespace
}  // namespace mmconf::cpnet
