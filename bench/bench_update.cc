// A3 — Online CP-net update (the paper's Section 4.2): the cost of the
// derived operation-variable construction vs. rebuilding the preference
// model from scratch, and global updates vs. per-viewer overlay
// extensions ("the original CP-network should not be duplicated").

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include <memory>

#include "common/rng.h"
#include "cpnet/update.h"
#include "doc/builder.h"
#include "doc/component.h"
#include "harness.h"

namespace {

using namespace mmconf;
using cpnet::CpNet;
using cpnet::CpNetEditor;
using cpnet::ViewerOverlay;

void PrintAblation() {
  std::printf("== A3: operation-variable update vs full rebuild ==\n");
  std::printf("%-8s %-22s %-22s %-22s\n", "vars", "op-variable(us)",
              "overlay-extend(us)", "rebuild+revalidate(us)");
  for (int n : {16, 64, 256, 1024}) {
    Rng rng(static_cast<uint64_t>(n));
    CpNet net = doc::MakeRandomCpNet(n, 2, 3, rng);

    const int reps = 50;
    // Global operation variable (includes revalidation of the whole net).
    CpNet scratch = net;
    int op = 0;
    double op_us = bench::MeanWallMicros(reps, [&] {
      CpNetEditor::AddOperationVariable(scratch, 0, 0,
                                        "op" + std::to_string(op++), "a", "p")
          .value();
    });

    // Per-viewer overlay extension (no global revalidation at all).
    ViewerOverlay overlay(&net);
    op = 0;
    double overlay_us = bench::MeanWallMicros(reps, [&] {
      overlay
          .AddOperationVariable(0, 0, "op" + std::to_string(op++), "a", "p")
          .value();
    });

    // Full rebuild: copy the structure into a fresh net and revalidate —
    // what a system without Section 4.2's incremental update would do.
    double rebuild_us = bench::MeanWallMicros(5, [&] {
      Rng rebuild_rng(static_cast<uint64_t>(n));
      CpNet rebuilt = doc::MakeRandomCpNet(n, 2, 3, rebuild_rng);
      benchmark::DoNotOptimize(rebuilt);
    });

    std::printf("%-8d %-22.1f %-22.2f %-22.1f\n", n, op_us, overlay_us,
                rebuild_us);
  }
  std::printf("\n== A3: component removal (restriction policy) ==\n");
  std::printf("%-8s %-18s\n", "vars", "remove+rebuild(us)");
  for (int n : {16, 64, 256}) {
    Rng rng(static_cast<uint64_t>(n) + 7);
    CpNet net = doc::MakeRandomCpNet(n, 2, 2, rng);
    double remove_us = bench::MeanWallMicros(20, [&] {
      benchmark::DoNotOptimize(CpNetEditor::RemoveComponent(net, n / 2, 0));
    });
    std::printf("%-8d %-18.1f\n", n, remove_us);
  }
  std::printf("\n");
}

void BM_AddOperationVariable(benchmark::State& state) {
  Rng rng(1);
  CpNet net = doc::MakeRandomCpNet(static_cast<int>(state.range(0)), 2, 3,
                                   rng);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CpNetEditor::AddOperationVariable(
        net, 0, 0, "op" + std::to_string(i++), "a", "p"));
  }
}
BENCHMARK(BM_AddOperationVariable)->Arg(16)->Arg(256);

void BM_OverlayAddOperation(benchmark::State& state) {
  Rng rng(2);
  CpNet net = doc::MakeRandomCpNet(static_cast<int>(state.range(0)), 2, 3,
                                   rng);
  ViewerOverlay overlay(&net);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.AddOperationVariable(
        0, 0, "op" + std::to_string(i++), "a", "p"));
  }
}
BENCHMARK(BM_OverlayAddOperation)->Arg(16)->Arg(256);

void BM_DocumentAddRemoveComponent(benchmark::State& state) {
  // The full §4.2 document path: add a leaf (rebind + transplant) then
  // remove it again.
  doc::MultimediaDocument document =
      doc::MakeMedicalRecordDocument().value();
  int i = 0;
  for (auto _ : state) {
    std::string name = "MRI" + std::to_string(i++);
    auto leaf = std::make_unique<doc::PrimitiveMultimediaComponent>(
        name, doc::ContentRef{"Image", 9, 1024},
        doc::ImagePresentations());
    document.AddComponent("Imaging", std::move(leaf)).value();
    document.RemoveComponent(name).ok();
  }
}
BENCHMARK(BM_DocumentAddRemoveComponent);

void BM_RemoveComponent(benchmark::State& state) {
  Rng rng(3);
  CpNet net = doc::MakeRandomCpNet(static_cast<int>(state.range(0)), 2, 2,
                                   rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CpNetEditor::RemoveComponent(
        net, static_cast<int>(state.range(0)) / 2, 0));
  }
}
BENCHMARK(BM_RemoveComponent)->Arg(16)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintAblation);
}
