#include <gtest/gtest.h>

#include "cpnet/cpnet.h"
#include "cpnet/update.h"
#include "doc/builder.h"

namespace mmconf::cpnet {
namespace {

TEST(AddComponentTest, AddsUnconditionalVariable) {
  CpNet net = doc::MakePaperFigure2Net();
  size_t before = net.num_variables();
  VarId v = CpNetEditor::AddComponent(net, "c6", {"shown", "hidden"},
                                      {0, 1})
                .value();
  EXPECT_EQ(net.num_variables(), before + 1);
  EXPECT_TRUE(net.validated());
  Assignment optimal = net.OptimalOutcome().value();
  EXPECT_EQ(optimal.Get(v), 0);
  // Existing variables keep their optima.
  EXPECT_EQ(optimal.Get(0), 0);
  EXPECT_EQ(optimal.Get(2), 1);
}

TEST(AddComponentTest, RejectsEmptyDomain) {
  CpNet net = doc::MakePaperFigure2Net();
  EXPECT_TRUE(CpNetEditor::AddComponent(net, "bad", {}, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(RemoveComponentTest, RemovesLeaf) {
  CpNet net = doc::MakePaperFigure2Net();
  // Remove c5 (a leaf).
  auto result = CpNetEditor::RemoveComponent(net, 4, 0).value();
  EXPECT_EQ(result.net.num_variables(), 4u);
  EXPECT_EQ(result.old_to_new[4], kUnassigned);
  EXPECT_EQ(result.old_to_new[0], 0);
  EXPECT_TRUE(result.net.validated());
  Assignment optimal = result.net.OptimalOutcome().value();
  // Same values as the original for the surviving variables.
  Assignment original = net.OptimalOutcome().value();
  for (size_t old_v = 0; old_v < 4; ++old_v) {
    EXPECT_EQ(optimal.Get(result.old_to_new[old_v]),
              original.Get(static_cast<VarId>(old_v)));
  }
}

TEST(RemoveComponentTest, ChildrenRestrictedToRemovedValue) {
  CpNet net = doc::MakePaperFigure2Net();
  // Remove c3 restricting to value 0 (c3_1): c4 and c5 keep only the
  // "parent = c3_1" row, i.e. unconditional preference for index 0.
  auto result = CpNetEditor::RemoveComponent(net, 2, 0).value();
  EXPECT_EQ(result.net.num_variables(), 4u);
  VarId new_c4 = result.old_to_new[3];
  EXPECT_TRUE(result.net.Parents(new_c4).empty());
  Assignment optimal = result.net.OptimalOutcome().value();
  EXPECT_EQ(optimal.Get(new_c4), 0);
  EXPECT_EQ(optimal.Get(result.old_to_new[4]), 0);
}

TEST(RemoveComponentTest, ValidatesArguments) {
  CpNet net = doc::MakePaperFigure2Net();
  EXPECT_TRUE(
      CpNetEditor::RemoveComponent(net, 99, 0).status().IsOutOfRange());
  EXPECT_TRUE(
      CpNetEditor::RemoveComponent(net, 0, 7).status().IsOutOfRange());
}

TEST(OperationVariableTest, PaperConstruction) {
  // The paper's exact scenario: ci is an X-ray with three resolutions;
  // a viewer segments it while presented at value c2i (index 1).
  CpNet net;
  VarId ci = net.AddVariable("xray", {"res1", "res2", "res3"});
  net.SetUnconditionalPreference(ci, {0, 1, 2}).ok();
  ASSERT_TRUE(net.Validate().ok());

  VarId op = CpNetEditor::AddOperationVariable(net, ci, /*trigger=*/1,
                                               "xray.seg", "segmented",
                                               "flat")
                 .value();
  ASSERT_TRUE(net.validated());
  EXPECT_EQ(net.num_variables(), 2u);
  ASSERT_EQ(net.Parents(op).size(), 1u);
  EXPECT_EQ(net.Parents(op)[0], ci);

  // "c1i' > c2i' iff ci = c2i": segmented preferred only at res2.
  for (ValueId value = 0; value < 3; ++value) {
    Assignment evidence(net.num_variables());
    evidence.Set(ci, value);
    Assignment completion = net.OptimalCompletion(evidence).value();
    EXPECT_EQ(completion.Get(op), value == 1 ? 0 : 1)
        << "xray at res" << (value + 1);
  }
  // "the domain of the variable ci remains unchanged".
  EXPECT_EQ(net.DomainSize(ci), 3);
}

TEST(OperationVariableTest, ValidatesArguments) {
  CpNet net = doc::MakePaperFigure2Net();
  EXPECT_TRUE(CpNetEditor::AddOperationVariable(net, 99, 0, "op", "a", "b")
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(CpNetEditor::AddOperationVariable(net, 0, 9, "op", "a", "b")
                  .status()
                  .IsOutOfRange());
}

TEST(ViewerOverlayTest, PrivateOperationVariable) {
  CpNet net = doc::MakePaperFigure2Net();
  ViewerOverlay overlay(&net);
  VarId op = overlay.AddOperationVariable(/*base_target=*/2,
                                          /*trigger=*/0, "c3.seg",
                                          "segmented", "flat")
                 .value();
  EXPECT_EQ(overlay.size(), 1u);
  // "the original CP-network should not be duplicated": base unchanged.
  EXPECT_EQ(net.num_variables(), 5u);

  Assignment base = net.OptimalOutcome().value();  // c3 = 1 here
  Assignment overlay_config = overlay.OptimalCompletion(base).value();
  EXPECT_EQ(overlay_config.Get(op), 1);  // flat: trigger not met

  Assignment evidence(net.num_variables());
  evidence.Set(2, 0);
  Assignment base2 = net.OptimalCompletion(evidence).value();
  EXPECT_EQ(overlay.OptimalCompletion(base2).value().Get(op), 0);
}

TEST(ViewerOverlayTest, ChainedOverlayVariables) {
  CpNet net = doc::MakePaperFigure2Net();
  ViewerOverlay overlay(&net);
  VarId first = overlay
                    .AddVariable("private1", {"on", "off"},
                                 {{false, 0}},  // parent: base c1
                                 {{0, 1}, {1, 0}})
                    .value();
  VarId second = overlay
                     .AddVariable("private2", {"x", "y"},
                                  {{true, first}},  // parent: overlay var
                                  {{1, 0}, {0, 1}})
                     .value();
  Assignment base = net.OptimalOutcome().value();  // c1 = 0
  Assignment config = overlay.OptimalCompletion(base).value();
  EXPECT_EQ(config.Get(first), 0);   // c1=0 -> on
  EXPECT_EQ(config.Get(second), 1);  // first=on(0) -> y? row 0 -> {1,0}
}

TEST(ViewerOverlayTest, EvidenceRespected) {
  CpNet net = doc::MakePaperFigure2Net();
  ViewerOverlay overlay(&net);
  VarId op =
      overlay.AddOperationVariable(2, 0, "op", "applied", "plain").value();
  Assignment base = net.OptimalOutcome().value();
  Assignment evidence(overlay.size());
  evidence.Set(op, 0);  // viewer insists on the applied form
  EXPECT_EQ(overlay.OptimalCompletion(base, evidence).value().Get(op), 0);
}

TEST(ViewerOverlayTest, ForwardParentRefsRejected) {
  CpNet net = doc::MakePaperFigure2Net();
  ViewerOverlay overlay(&net);
  // Overlay var referencing a not-yet-existing overlay var.
  EXPECT_TRUE(overlay
                  .AddVariable("bad", {"a", "b"}, {{true, 5}},
                               {{0, 1}, {1, 0}})
                  .status()
                  .IsInvalidArgument());
  // Unknown base variable.
  EXPECT_TRUE(overlay
                  .AddVariable("bad2", {"a", "b"}, {{false, 42}},
                               {{0, 1}, {1, 0}})
                  .status()
                  .IsOutOfRange());
  // Wrong number of rankings.
  EXPECT_TRUE(overlay.AddVariable("bad3", {"a", "b"}, {{false, 0}}, {{0, 1}})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace mmconf::cpnet
