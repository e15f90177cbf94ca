// F6 — The multimedia document model (the paper's Fig. 6 OOD):
// construction, serialization, and per-query costs of the document
// operations every other tier leans on (visibility, presentation lookup,
// delivery cost, encode/decode for BLOB storage).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/builder.h"
#include "doc/document.h"
#include "harness.h"

namespace {

using mmconf::Bytes;
using mmconf::Rng;
using mmconf::cpnet::Assignment;
using mmconf::doc::MakeMedicalRecordDocument;
using mmconf::doc::MakeRandomDocument;
using mmconf::doc::MultimediaDocument;

void PrintFigure6() {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  std::printf("== F6: medical record document (Fig. 6 entity relation) ==\n");
  std::printf("components: %zu (CP-net variables: %zu)\n",
              document.num_components(), document.num_variables());
  Bytes encoded = document.Encode();
  std::printf("serialized document: %zu bytes\n", encoded.size());
  std::printf("\n%-10s %-12s %-14s\n", "leaves", "variables",
              "encoded(B)");
  for (int leaves : {8, 32, 128}) {
    Rng rng(static_cast<uint64_t>(leaves));
    MultimediaDocument random =
        MakeRandomDocument(leaves / 4, leaves, rng).value();
    std::printf("%-10d %-12zu %-14zu\n", leaves, random.num_variables(),
                random.Encode().size());
  }
  std::printf("\n");
}

void BM_BuildMedicalRecord(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeMedicalRecordDocument());
  }
}
BENCHMARK(BM_BuildMedicalRecord);

void BM_EncodeDocument(benchmark::State& state) {
  Rng rng(1);
  MultimediaDocument document =
      MakeRandomDocument(static_cast<int>(state.range(0)) / 4,
                         static_cast<int>(state.range(0)), rng)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.Encode());
  }
}
BENCHMARK(BM_EncodeDocument)->Arg(16)->Arg(128);

void BM_DecodeDocument(benchmark::State& state) {
  Rng rng(2);
  MultimediaDocument document =
      MakeRandomDocument(static_cast<int>(state.range(0)) / 4,
                         static_cast<int>(state.range(0)), rng)
          .value();
  Bytes encoded = document.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultimediaDocument::Decode(encoded));
  }
}
BENCHMARK(BM_DecodeDocument)->Arg(16)->Arg(128);

void BM_VisibilityQuery(benchmark::State& state) {
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  Assignment config = document.DefaultPresentation().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.IsVisible(config, "CT"));
  }
}
BENCHMARK(BM_VisibilityQuery);

void BM_AddOperationVariable(benchmark::State& state) {
  int i = 0;
  MultimediaDocument document = MakeMedicalRecordDocument().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.AddOperationVariable(
        "CT", "flat", "op" + std::to_string(i++)));
  }
}
BENCHMARK(BM_AddOperationVariable);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintFigure6);
}
