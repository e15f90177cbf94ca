// A2 — Preference-based pre-fetching (the paper's Section 4.4 / [12]):
// cache hit rate and simulated response time of the client buffer under
// three policies (no cache, LRU, preference-based prefetch), swept over
// buffer size, against a preference-correlated stream of viewer choices.
//
// Plus the incremental-ranking ablation: RankCandidates (descendant-cone
// re-sweeps + dense accumulators) against the baseline ranker in
// tests/oracles (full sweeps + string-keyed maps) over wide, deep-chain,
// and high-fan-out documents, with an output-equality sanity check.
// Results are printed and written as machine-readable JSON (to
// --json_out=PATH). --smoke shrinks the scenarios for a ctest-able perf
// smoke run and skips the slower ablations.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot
// (prefetch.rank.* work counters; byte-identical across runs).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/builder.h"
#include "harness.h"
#include "net/network.h"
#include "oracles/oracles.h"
#include "prefetch/cache.h"
#include "prefetch/predictor.h"
#include "prefetch/session.h"

namespace {

using namespace mmconf;
using cpnet::Assignment;
using doc::MultimediaDocument;
using doc::ViewerChoice;
using prefetch::CachePolicy;
using prefetch::ClientCache;
using prefetch::PrefetchCandidate;
using prefetch::PrefetchPredictor;

/// Draws the viewer's next choice: a random component, with the new
/// presentation drawn geometrically down the author's ranking (viewers
/// mostly follow the author's taste, occasionally diverge) — the
/// assumption the paper's predictor [12] exploits.
ViewerChoice DrawChoice(const MultimediaDocument& document,
                        const Assignment& current, Rng& rng) {
  const auto& components = document.components();
  while (true) {
    size_t i = rng.NextBelow(components.size());
    const doc::MultimediaComponent* component = components[i];
    if (component->IsComposite()) continue;
    const cpnet::CpNet& net = document.net();
    cpnet::VarId var = static_cast<cpnet::VarId>(i);
    std::vector<cpnet::ValueId> parent_values;
    for (cpnet::VarId parent : net.Parents(var)) {
      parent_values.push_back(current.Get(parent));
    }
    size_t row = net.CptOf(var).RowIndex(parent_values).value();
    cpnet::PreferenceRanking ranking =
        net.CptOf(var).Ranking(row).value();
    size_t position = 0;
    while (position + 1 < ranking.size() && rng.Chance(0.45)) ++position;
    return {component->name(),
            net.ValueNames(var)[static_cast<size_t>(ranking[position])]};
  }
}

struct RunResult {
  double hit_rate = 0;
  double mean_response_ms = 0;
};

/// Replays `steps` viewer choices through a PrefetchSession over the
/// simulated 256 KB/s downlink: on-demand misses occupy the wire (that
/// is the user-visible response time); the preference policy then
/// prefetches in the background. The virtual clock idles 2 s between
/// choices, modelling viewer think time during which prefetch traffic
/// drains.
RunResult Simulate(CachePolicy policy, size_t buffer_bytes, int steps,
                   uint64_t seed) {
  Rng rng(seed);
  MultimediaDocument document =
      doc::MakeRandomDocument(6, 24, rng).value();
  Clock clock;
  net::Network network(&clock);
  net::NodeId server = network.AddNode("server");
  net::NodeId client = network.AddNode("client");
  network.SetLink(server, client, {256e3, 10000}).ok();
  prefetch::PrefetchSession::Options options;
  options.buffer_bytes = buffer_bytes;
  options.policy = policy;
  prefetch::PrefetchSession session(&document, &network, server, client,
                                    options);

  double total_response_s = 0;
  int reconfigurations = 0;
  std::vector<ViewerChoice> history;
  Assignment current = document.DefaultPresentation().value();
  session.OnConfiguration(current).value();
  network.AdvanceUntilIdle();
  for (int step = 0; step < steps; ++step) {
    ViewerChoice choice = DrawChoice(document, current, rng);
    history.push_back(choice);
    Assignment next = document.ReconfigPresentation(history).value();
    MicrosT asked = clock.NowMicros();
    MicrosT delivered = session.OnConfiguration(next).value();
    total_response_s += static_cast<double>(delivered - asked) * 1e-6;
    ++reconfigurations;
    current = next;
    if (history.size() > 4) history.erase(history.begin());
    // Think time: background prefetch drains before the next choice.
    network.AdvanceTo(clock.NowMicros() + 2000000);
  }
  RunResult result;
  result.hit_rate = session.stats().HitRate();
  result.mean_response_ms = reconfigurations > 0
                                ? total_response_s * 1000.0 /
                                      reconfigurations
                                : 0;
  return result;
}

void PrintAblation() {
  std::printf("== A2: client-buffer policy ablation "
              "(256 KB/s downlink, 120 choices) ==\n");
  std::printf("%-12s %-14s %-12s %-18s\n", "buffer", "policy", "hit-rate",
              "mean-response(ms)");
  for (size_t buffer_kb : {64, 256, 1024, 4096}) {
    for (CachePolicy policy :
         {CachePolicy::kNone, CachePolicy::kLru, CachePolicy::kPreference}) {
      // Average over three seeds.
      RunResult sum;
      const int kSeeds = 3;
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        RunResult run = Simulate(policy, buffer_kb * 1024, 120, seed);
        sum.hit_rate += run.hit_rate;
        sum.mean_response_ms += run.mean_response_ms;
      }
      std::printf("%-12zu %-14s %-12.3f %-18.1f\n", buffer_kb,
                  prefetch::CachePolicyToString(policy),
                  sum.hit_rate / kSeeds, sum.mean_response_ms / kSeeds);
    }
  }
  std::printf("\n");
}

// --- Incremental-ranking ablation -----------------------------------

/// Rotates a domain-name ranking by `shift` — a cheap way to make a
/// component's preference genuinely conditional on a parent value.
std::vector<std::string> RotatedRanking(
    const std::vector<std::string>& names, size_t shift) {
  std::vector<std::string> ranking;
  ranking.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ranking.push_back(names[(i + shift) % names.size()]);
  }
  return ranking;
}

/// Chains every leaf's preference on the previous leaf while the tree
/// itself nests one group per level: both the component hierarchy and
/// the CP-net are `depth` deep, so a pin near the top re-sweeps almost
/// everything and a pin near the bottom almost nothing.
MultimediaDocument MakeDeepChainDocument(int depth) {
  doc::TreeBuilder builder("root");
  std::string parent = "root";
  for (int i = 0; i < depth; ++i) {
    std::string group = "g" + std::to_string(i);
    std::string leaf = "leaf" + std::to_string(i);
    builder.Group(parent, group);
    builder.Leaf(group, leaf,
                 {"Image", static_cast<uint64_t>(i), 64u << 10},
                 doc::ImagePresentations());
    parent = group;
  }
  MultimediaDocument document = builder.Build().value();
  for (int i = 1; i < depth; ++i) {
    std::string prev = "leaf" + std::to_string(i - 1);
    std::string leaf = "leaf" + std::to_string(i);
    document.SetParentsByName(leaf, {prev}).ok();
    std::vector<std::string> prev_names =
        document.Find(prev).value()->DomainValueNames();
    std::vector<std::string> leaf_names =
        document.Find(leaf).value()->DomainValueNames();
    for (size_t v = 0; v < prev_names.size(); ++v) {
      document
          .SetPreferenceByName(leaf, {prev_names[v]},
                               RotatedRanking(leaf_names, v))
          .ok();
    }
  }
  document.Finalize().ok();
  return document;
}

/// One hub leaf that every other leaf's preference conditions on: a pin
/// of the hub re-sweeps every leaf, a pin of a spoke only itself.
MultimediaDocument MakeFanOutDocument(int leaves) {
  doc::TreeBuilder builder("root");
  builder.Leaf("root", "hub", {"Image", 0, 64u << 10},
               doc::ImagePresentations());
  for (int i = 1; i < leaves; ++i) {
    builder.Leaf("root", "leaf" + std::to_string(i),
                 {"Image", static_cast<uint64_t>(i), 64u << 10},
                 doc::ImagePresentations());
  }
  MultimediaDocument document = builder.Build().value();
  std::vector<std::string> hub_names =
      document.Find("hub").value()->DomainValueNames();
  for (int i = 1; i < leaves; ++i) {
    std::string leaf = "leaf" + std::to_string(i);
    document.SetParentsByName(leaf, {"hub"}).ok();
    std::vector<std::string> leaf_names =
        document.Find(leaf).value()->DomainValueNames();
    for (size_t v = 0; v < hub_names.size(); ++v) {
      document
          .SetPreferenceByName(leaf, {hub_names[v]},
                               RotatedRanking(leaf_names, v))
          .ok();
    }
  }
  document.Finalize().ok();
  return document;
}

struct ScenarioResult {
  std::string name;
  size_t components = 0;
  size_t candidates = 0;
  double baseline_us = 0;  ///< per RankCandidatesBaseline call
  double fast_us = 0;      ///< per RankCandidates call
  bool identical = false;  ///< outputs byte-identical
  double Speedup() const {
    return fast_us > 0 ? baseline_us / fast_us : 0;
  }
};

bool SameRanking(const std::vector<PrefetchCandidate>& a,
                 const std::vector<PrefetchCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].component != b[i].component ||
        a[i].presentation != b[i].presentation ||
        a[i].score != b[i].score || a[i].cost_bytes != b[i].cost_bytes) {
      return false;
    }
  }
  return true;
}

ScenarioResult RunScenario(const std::string& name,
                           MultimediaDocument document, int reps,
                           obs::MetricsRegistry* metrics) {
  PrefetchPredictor predictor(&document);
  predictor.SetObserver(metrics);
  Assignment config = document.DefaultPresentation().value();
  ScenarioResult result;
  result.name = name;
  result.components = document.num_components();

  std::vector<PrefetchCandidate> baseline =
      oracles::RankCandidatesBaseline(document, config).value();
  std::vector<PrefetchCandidate> fast =
      predictor.RankCandidates(config).value();
  result.candidates = fast.size();
  result.identical = SameRanking(fast, baseline);

  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(
        oracles::RankCandidatesBaseline(document, config));
  });
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    benchmark::DoNotOptimize(predictor.RankCandidates(config));
  });
  return result;
}

std::vector<ScenarioResult> RunRankingAblation(
    bool smoke, obs::MetricsRegistry* metrics) {
  Rng rng(2002);
  const int reps = smoke ? 2 : 10;
  std::vector<ScenarioResult> results;
  results.push_back(RunScenario(
      "wide-document",
      doc::MakeRandomDocument(smoke ? 4 : 6, smoke ? 16 : 48, rng).value(),
      reps, metrics));
  results.push_back(RunScenario(
      "deep-chain", MakeDeepChainDocument(smoke ? 8 : 24), reps, metrics));
  results.push_back(RunScenario(
      "high-fanout", MakeFanOutDocument(smoke ? 12 : 40), reps, metrics));

  std::printf("== Prefetch ranking: incremental re-sweep vs full-sweep "
              "baseline (%s) ==\n", smoke ? "smoke" : "full");
  std::printf("%-16s %-12s %-12s %-14s %-14s %-10s %s\n", "scenario",
              "components", "candidates", "baseline(us)", "fast(us)",
              "speedup", "identical");
  for (const ScenarioResult& result : results) {
    std::printf("%-16s %-12zu %-12zu %-14.1f %-14.1f %-10.1f %s\n",
                result.name.c_str(), result.components, result.candidates,
                result.baseline_us, result.fast_us, result.Speedup(),
                result.identical ? "yes" : "NO");
  }
  std::printf("\n");
  return results;
}

std::string JsonRow(const ScenarioResult& result) {
  return bench::Format(
      "{\"name\": \"%s\", \"components\": %zu, \"candidates\": %zu, "
      "\"baseline_us\": %.3f, \"fast_us\": %.3f, \"speedup\": %.2f, "
      "\"identical\": %s}",
      result.name.c_str(), result.components, result.candidates,
      result.baseline_us, result.fast_us, result.Speedup(),
      result.identical ? "true" : "false");
}

void BM_RankCandidates(benchmark::State& state) {
  Rng rng(9);
  MultimediaDocument document =
      doc::MakeRandomDocument(static_cast<int>(state.range(0)) / 4,
                              static_cast<int>(state.range(0)), rng)
          .value();
  PrefetchPredictor predictor(&document);
  Assignment config = document.DefaultPresentation().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.RankCandidates(config));
  }
  state.counters["leaves"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RankCandidates)->Arg(8)->Arg(24)->Arg(64);

void BM_RankCandidatesBaseline(benchmark::State& state) {
  Rng rng(9);
  MultimediaDocument document =
      doc::MakeRandomDocument(static_cast<int>(state.range(0)) / 4,
                              static_cast<int>(state.range(0)), rng)
          .value();
  Assignment config = document.DefaultPresentation().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracles::RankCandidatesBaseline(document, config));
  }
  state.counters["leaves"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RankCandidatesBaseline)->Arg(8)->Arg(24)->Arg(64);

void BM_CacheLookupInsert(benchmark::State& state) {
  ClientCache cache(1 << 20, CachePolicy::kLru);
  Rng rng(10);
  int i = 0;
  for (auto _ : state) {
    std::string key = "component-" + std::to_string(i % 100);
    if (!cache.Lookup(key)) {
      cache.Insert(key, 8192, 1.0).ok();
    }
    ++i;
  }
}
BENCHMARK(BM_CacheLookupInsert);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/false);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<ScenarioResult> results =
      RunRankingAblation(harness.smoke(), harness.metrics());
  bool identical = true;
  for (const ScenarioResult& result : results) {
    identical = identical && result.identical;
  }
  return harness.Finish(
      identical,
      bench::MakeReport("prefetch_ranking", "scenarios", results, JsonRow),
      PrintAblation);
}
