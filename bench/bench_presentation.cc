// F3 — The presentation system (the paper's Fig. 3): latency of
// defaultPresentation and reconfigPresentation as the document grows and
// as more viewers pin choices. The paper's architecture hinges on the
// interaction server recomputing the optimal presentation on every viewer
// action, so this must stay interactive (well under a frame) even for
// large records.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/builder.h"
#include "doc/document.h"
#include "doc/tuning.h"
#include "harness.h"

namespace {

using mmconf::Rng;
using mmconf::cpnet::Assignment;
using mmconf::doc::MakeRandomDocument;
using mmconf::doc::MultimediaDocument;
using mmconf::doc::ViewerChoice;
namespace bench = mmconf::bench;

std::vector<ViewerChoice> RandomChoices(const MultimediaDocument& document,
                                        int count, Rng& rng) {
  std::vector<ViewerChoice> choices;
  const auto& components = document.components();
  for (int i = 0; i < count; ++i) {
    const auto* component = components[rng.NextBelow(components.size())];
    std::vector<std::string> domain = component->DomainValueNames();
    choices.push_back(
        {component->name(), domain[rng.NextBelow(domain.size())]});
  }
  return choices;
}

void PrintFigure3() {
  std::printf("== F3: reconfiguration latency vs document size ==\n");
  std::printf("%-10s %-12s %-18s %-18s\n", "leaves", "variables",
              "default(us)", "reconfig-3(us)");
  for (int leaves : {8, 32, 128, 512}) {
    Rng rng(static_cast<uint64_t>(leaves));
    MultimediaDocument document =
        MakeRandomDocument(leaves / 4, leaves, rng).value();
    std::vector<ViewerChoice> choices = RandomChoices(document, 3, rng);
    const int reps = 200;
    double default_us = bench::MeanWallMicros(reps, [&] {
      benchmark::DoNotOptimize(document.DefaultPresentation());
    });
    double reconfig_us = bench::MeanWallMicros(reps, [&] {
      benchmark::DoNotOptimize(document.ReconfigPresentation(choices));
    });
    std::printf("%-10d %-12zu %-18.2f %-18.2f\n", leaves,
                document.num_variables(), default_us, reconfig_us);
  }

  // Section 4.4 first alternative: tuning variables conditioned on the
  // measured bandwidth, extended automatically from ordering templates.
  std::printf("\n== Section 4.4 bandwidth tuning (medical record) ==\n");
  std::printf("%-10s %-18s %s\n", "level", "delivery(B)", "CT form");
  MultimediaDocument tuned =
      mmconf::doc::MakeMedicalRecordDocument().value();
  mmconf::doc::AddBandwidthTuning(tuned, "net").value();
  for (auto level : {mmconf::doc::BandwidthLevel::kHigh,
                     mmconf::doc::BandwidthLevel::kMedium,
                     mmconf::doc::BandwidthLevel::kLow}) {
    Assignment config =
        tuned
            .ReconfigPresentation({mmconf::doc::TuningChoice("net", level)})
            .value();
    std::printf("%-10s %-18zu %s\n",
                mmconf::doc::BandwidthLevelToString(level),
                tuned.DeliveryCostBytes(config).value(),
                tuned.PresentationFor(config, "CT").value().name.c_str());
  }
  std::printf("\n");
}

void BM_DefaultPresentation(benchmark::State& state) {
  Rng rng(1);
  MultimediaDocument document =
      MakeRandomDocument(static_cast<int>(state.range(0)) / 4,
                         static_cast<int>(state.range(0)), rng)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.DefaultPresentation());
  }
  state.counters["components"] =
      static_cast<double>(document.num_components());
}
BENCHMARK(BM_DefaultPresentation)->Arg(16)->Arg(64)->Arg(256);

void BM_ReconfigPresentation(benchmark::State& state) {
  Rng rng(2);
  MultimediaDocument document = MakeRandomDocument(16, 64, rng).value();
  std::vector<ViewerChoice> choices =
      RandomChoices(document, static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.ReconfigPresentation(choices));
  }
  state.counters["choices"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ReconfigPresentation)->Arg(1)->Arg(4)->Arg(16);

void BM_DeliveryCost(benchmark::State& state) {
  Rng rng(3);
  MultimediaDocument document = MakeRandomDocument(16, 64, rng).value();
  Assignment config = document.DefaultPresentation().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(document.DeliveryCostBytes(config));
  }
}
BENCHMARK(BM_DeliveryCost);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintFigure3);
}
