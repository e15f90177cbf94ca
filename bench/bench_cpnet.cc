// F2 + A1 — Reproduces the paper's Figure 2 (the worked CP-net c1..c5
// with its CPTs and implied optimal configurations) and the Section 4.1
// claim that CP-nets "support fast algorithms for optimal configuration
// determination": the topological sweep vs. exhaustive enumeration
// ablation, swept over network size.
//
// Plus the incremental-recompletion ablation: RecompleteInto over the
// flat arena (watched cone sweep) against a full OptimalCompletion per
// pin, over chain / fan-out / random net shapes, with byte-identity and
// brute-force oracle checks. Results are printed and written as
// machine-readable JSON (to --json_out=PATH). --smoke shrinks the
// scenarios for a ctest-able perf smoke run and skips the slower figures
// and google-benchmark sweeps.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot (the
// cpnet.sweep.* / cpnet.recomplete.* work counters accumulated by the
// check pass; byte-identical across runs).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cpnet/cpnet.h"
#include "doc/builder.h"
#include "harness.h"
#include "obs/metrics.h"
#include "oracles/oracles.h"

namespace {

namespace bench = mmconf::bench;
namespace obs = mmconf::obs;

using mmconf::Rng;
using mmconf::cpnet::Assignment;
using mmconf::cpnet::CpNet;
using mmconf::cpnet::ValueId;
using mmconf::cpnet::VarId;
using mmconf::oracles::BruteForceOptimalCompletion;
using mmconf::oracles::BruteForceRecompleteFrom;

void PrintFigure2() {
  CpNet net = mmconf::doc::MakePaperFigure2Net();
  std::printf("== Figure 2: the paper's example CP-network ==\n%s\n",
              net.DebugString().c_str());
  Assignment optimal = net.OptimalOutcome().value();
  std::printf("optimal outcome (topological sweep): %s\n",
              optimal.ToString().c_str());
  std::printf("\n%-24s %s\n", "evidence", "optimal completion");
  for (VarId v = 0; v < static_cast<VarId>(net.num_variables()); ++v) {
    for (ValueId value = 0; value < net.DomainSize(v); ++value) {
      Assignment evidence(net.num_variables());
      evidence.Set(v, value);
      Assignment completion = net.OptimalCompletion(evidence).value();
      std::string label = net.VariableName(v) + "=" +
                          net.ValueNames(v)[static_cast<size_t>(value)];
      std::printf("%-24s %s\n", label.c_str(),
                  completion.ToString().c_str());
    }
  }
  std::printf("\n== A1: sweep vs exhaustive enumeration (binary domains,"
              " time per query) ==\n");
  std::printf("%-8s %-16s %-16s %s\n", "vars", "sweep(us)", "brute(us)",
              "speedup");
  for (int n : {4, 8, 12, 16, 20}) {
    Rng rng(100 + static_cast<uint64_t>(n));
    CpNet net_n = mmconf::doc::MakeRandomCpNet(n, 2, 2, rng);
    Assignment evidence(net_n.num_variables());
    double sweep_us = bench::MeanWallMicros(1000, [&] {
      benchmark::DoNotOptimize(net_n.OptimalCompletion(evidence));
    });
    double brute_us = -1;
    if (n <= 16) {
      brute_us = bench::MeanWallMicros(1, [&] {
        benchmark::DoNotOptimize(BruteForceOptimalCompletion(net_n, evidence));
      });
    }
    if (brute_us >= 0) {
      std::printf("%-8d %-16.2f %-16.1f %.0fx\n", n, sweep_us, brute_us,
                  brute_us / sweep_us);
    } else {
      std::printf("%-8d %-16.2f %-16s %s\n", n, sweep_us, "(intractable)",
                  "-");
    }
  }
  std::printf("\n");
}

void BM_SweepOptimalCompletion(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(42);
  CpNet net = mmconf::doc::MakeRandomCpNet(n, 3, 3, rng);
  Assignment evidence(net.num_variables());
  evidence.Set(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.OptimalCompletion(evidence));
  }
  state.counters["vars"] = n;
}
BENCHMARK(BM_SweepOptimalCompletion)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_BruteForceCompletion(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(42);
  CpNet net = mmconf::doc::MakeRandomCpNet(n, 2, 2, rng);
  Assignment evidence(net.num_variables());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BruteForceOptimalCompletion(net, evidence));
  }
  state.counters["outcomes"] = static_cast<double>(1) * (1 << n);
}
BENCHMARK(BM_BruteForceCompletion)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

/// Binary chain v0 -> v1 -> ... -> v(n-1): pinning v0 re-sweeps the
/// whole net, pinning v(n-1) a single variable.
CpNet MakeChainNet(int n) {
  CpNet net;
  for (int i = 0; i < n; ++i) {
    net.AddVariable("v" + std::to_string(i), {"a", "b"});
  }
  net.SetUnconditionalPreference(0, {0, 1}).ok();
  for (int i = 1; i < n; ++i) {
    net.SetParents(i, {static_cast<VarId>(i - 1)}).ok();
    net.SetPreference(i, {0}, {0, 1}).ok();
    net.SetPreference(i, {1}, {1, 0}).ok();
  }
  net.Validate().ok();
  return net;
}

/// Star: one root, n-1 children conditioned on it.
CpNet MakeFanOutNet(int n) {
  CpNet net;
  for (int i = 0; i < n; ++i) {
    net.AddVariable("v" + std::to_string(i), {"a", "b"});
  }
  net.SetUnconditionalPreference(0, {0, 1}).ok();
  for (int i = 1; i < n; ++i) {
    net.SetParents(i, {0}).ok();
    net.SetPreference(i, {0}, {0, 1}).ok();
    net.SetPreference(i, {1}, {1, 0}).ok();
  }
  net.Validate().ok();
  return net;
}

// --- Incremental-recompletion ablation ------------------------------

struct ScenarioResult {
  std::string name;
  size_t vars = 0;
  size_t pairs = 0;           ///< (variable, value) pins swept
  uint64_t rows_touched = 0;  ///< CPT rows the watched sweep read
  uint64_t vars_skipped = 0;  ///< cone vars skipped as clean
  double baseline_us = 0;     ///< per full OptimalCompletion pin
  double fast_us = 0;         ///< per RecompleteInto pin
  bool identical = false;     ///< fast == full sweep on every pin
  bool oracle_match = true;   ///< fast == brute force (small nets only)
  double Speedup() const {
    return fast_us > 0 ? baseline_us / fast_us : 0;
  }
};

/// Sweeps every (variable, value) pin of `net` through both the
/// incremental path (RecompleteInto over the shared base optimum) and
/// the full-sweep baseline (OptimalCompletion of the single-pin
/// evidence), checking byte-identity pin by pin. Nets small enough to
/// enumerate are additionally pinned against the brute-force oracle.
ScenarioResult RunScenario(const std::string& name, const CpNet& net,
                           int reps, obs::MetricsRegistry* metrics) {
  ScenarioResult result;
  result.name = name;
  result.vars = net.num_variables();
  result.identical = true;

  Assignment base = net.OptimalOutcome().value();
  Assignment fast(net.num_variables());

  // Check pass: deterministic work counters come from exactly this one
  // sweep over all pins (the timing loops below run unobserved).
  obs::MetricsRegistry work;
  net.SetObserver(&work);
  const bool oracle_feasible = net.num_variables() <= 12;
  for (VarId v = 0; v < static_cast<VarId>(net.num_variables()); ++v) {
    for (ValueId value = 0; value < net.DomainSize(v); ++value) {
      ++result.pairs;
      net.RecompleteInto(base, v, value, &fast).ok();
      Assignment evidence(net.num_variables());
      evidence.Set(v, value);
      Assignment full = net.OptimalCompletion(evidence).value();
      if (!(fast == full)) result.identical = false;
      if (oracle_feasible) {
        Assignment oracle =
            BruteForceRecompleteFrom(net, Assignment(net.num_variables()),
                                     v, value)
                .value();
        if (!(fast == oracle)) result.oracle_match = false;
      }
    }
  }
  result.rows_touched =
      work.GetCounter("cpnet.recomplete.rows_touched")->value();
  result.vars_skipped =
      work.GetCounter("cpnet.recomplete.vars_skipped")->value();
  // The caller's registry accumulates the same pass across scenarios.
  net.SetObserver(metrics);
  if (metrics != nullptr) {
    for (VarId v = 0; v < static_cast<VarId>(net.num_variables()); ++v) {
      for (ValueId value = 0; value < net.DomainSize(v); ++value) {
        net.RecompleteInto(base, v, value, &fast).ok();
      }
    }
  }
  net.SetObserver(nullptr);  // timing loops run unobserved

  const double pairs = static_cast<double>(result.pairs);
  result.baseline_us = bench::MeanWallMicros(reps, [&] {
    for (VarId v = 0; v < static_cast<VarId>(net.num_variables()); ++v) {
      for (ValueId value = 0; value < net.DomainSize(v); ++value) {
        Assignment evidence(net.num_variables());
        evidence.Set(v, value);
        benchmark::DoNotOptimize(net.OptimalCompletion(evidence));
      }
    }
  }) / pairs;
  result.fast_us = bench::MeanWallMicros(reps, [&] {
    for (VarId v = 0; v < static_cast<VarId>(net.num_variables()); ++v) {
      for (ValueId value = 0; value < net.DomainSize(v); ++value) {
        benchmark::DoNotOptimize(net.RecompleteInto(base, v, value, &fast));
      }
    }
  }) / pairs;
  return result;
}

std::vector<ScenarioResult> RunRecompleteAblation(
    bool smoke, obs::MetricsRegistry* metrics) {
  const int n = smoke ? 64 : 512;
  const int reps = smoke ? 2 : 10;
  Rng rng(2003);
  std::vector<ScenarioResult> results;
  results.push_back(
      RunScenario("chain", MakeChainNet(n), reps, metrics));
  results.push_back(
      RunScenario("fanout", MakeFanOutNet(n), reps, metrics));
  results.push_back(RunScenario(
      "random",
      mmconf::doc::MakeRandomCpNet(smoke ? 24 : 96, 3, 3, rng), reps,
      metrics));
  // Small net: every pin double-checked against exhaustive enumeration.
  results.push_back(RunScenario(
      "oracle", mmconf::doc::MakeRandomCpNet(10, 2, 3, rng), reps,
      metrics));

  std::printf("== CP-net recompletion: watched cone sweep vs full sweep "
              "(%s) ==\n", smoke ? "smoke" : "full");
  std::printf("%-10s %-6s %-7s %-12s %-12s %-14s %-12s %-9s %-10s %s\n",
              "scenario", "vars", "pairs", "rows", "skipped",
              "baseline(us)", "fast(us)", "speedup", "identical",
              "oracle");
  for (const ScenarioResult& result : results) {
    std::printf(
        "%-10s %-6zu %-7zu %-12llu %-12llu %-14.3f %-12.3f %-9.1f "
        "%-10s %s\n",
        result.name.c_str(), result.vars, result.pairs,
        static_cast<unsigned long long>(result.rows_touched),
        static_cast<unsigned long long>(result.vars_skipped),
        result.baseline_us, result.fast_us, result.Speedup(),
        result.identical ? "yes" : "NO",
        result.oracle_match ? "yes" : "NO");
  }
  std::printf("\n");
  return results;
}

std::string JsonRow(const ScenarioResult& result) {
  return bench::Format(
      "{\"name\": \"%s\", \"vars\": %zu, \"pairs\": %zu, "
      "\"rows_touched\": %llu, \"vars_skipped\": %llu, "
      "\"baseline_us\": %.3f, \"fast_us\": %.3f, \"speedup\": %.2f, "
      "\"identical\": %s, \"oracle_match\": %s}",
      result.name.c_str(), result.vars, result.pairs,
      static_cast<unsigned long long>(result.rows_touched),
      static_cast<unsigned long long>(result.vars_skipped), result.baseline_us,
      result.fast_us, result.Speedup(), result.identical ? "true" : "false",
      result.oracle_match ? "true" : "false");
}

/// Full re-sweep under a single-variable pin — the "before" of the
/// incremental re-optimization; compare against BM_RecompleteFrom* with
/// the same shape and pin.
void BM_PinnedFullSweep(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CpNet net = state.range(1) == 0 ? MakeChainNet(n) : MakeFanOutNet(n);
  VarId pinned = static_cast<VarId>(n - 1);  // leaf / one spoke
  Assignment evidence(net.num_variables());
  evidence.Set(pinned, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.OptimalCompletion(evidence));
  }
  state.counters["vars"] = n;
}
BENCHMARK(BM_PinnedFullSweep)
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({64, 1})
    ->Args({512, 1});

void BM_RecompleteFromLeaf(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  CpNet net = state.range(1) == 0 ? MakeChainNet(n) : MakeFanOutNet(n);
  VarId pinned = static_cast<VarId>(n - 1);  // cone of size 1
  Assignment base = net.OptimalOutcome().value();
  Assignment scratch(net.num_variables());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.RecompleteInto(base, pinned, 1, &scratch));
  }
  state.counters["vars"] = n;
  state.counters["cone"] =
      static_cast<double>(net.DescendantCone(pinned).size());
}
BENCHMARK(BM_RecompleteFromLeaf)
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({64, 1})
    ->Args({512, 1});

void BM_RecompleteFromRoot(benchmark::State& state) {
  // Worst case: the pin's cone is the whole net, so the incremental
  // sweep degenerates to the full one (minus the allocation).
  int n = static_cast<int>(state.range(0));
  CpNet net = state.range(1) == 0 ? MakeChainNet(n) : MakeFanOutNet(n);
  Assignment base = net.OptimalOutcome().value();
  Assignment scratch(net.num_variables());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.RecompleteInto(base, 0, 1, &scratch));
  }
  state.counters["vars"] = n;
  state.counters["cone"] = static_cast<double>(net.DescendantCone(0).size());
}
BENCHMARK(BM_RecompleteFromRoot)->Args({512, 0})->Args({512, 1});

void BM_ImprovingFlips(benchmark::State& state) {
  Rng rng(7);
  CpNet net = mmconf::doc::MakeRandomCpNet(
      static_cast<int>(state.range(0)), 3, 3, rng);
  Assignment outcome = net.OptimalOutcome().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.ImprovingFlips(outcome));
  }
}
BENCHMARK(BM_ImprovingFlips)->Arg(32)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/false);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<ScenarioResult> results =
      RunRecompleteAblation(harness.smoke(), harness.metrics());
  bool checks_ok = true;
  for (const ScenarioResult& result : results) {
    checks_ok = checks_ok && result.identical && result.oracle_match;
  }
  return harness.Finish(
      checks_ok,
      bench::MakeReport("cpnet_recomplete", "scenarios", results, JsonRow),
      PrintFigure2);
}
