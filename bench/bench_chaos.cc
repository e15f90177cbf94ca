// Trace-driven chaos suite: seeded workload scenarios (lecture flash
// crowds, medical consults, mixed rooms) replayed against the full
// stack — federated interaction tier over the sharded durable database,
// streams, broadcast fan-out — with net, storage and stream faults
// injected concurrently, asserting the whole-run invariants: no base
// layer ever dropped, byte-exact storage recovery after every shard
// crash, Serialize()-level room convergence, and bounded stall /
// tail-latency budgets.
//
// Results are printed and written as machine-readable JSON (to
// --json_out=PATH). --smoke runs the scenario-mix x seed matrix and exits
// nonzero when any invariant breaks. A failing cell prints the exact
// command line that replays it locally; --scenario=NAME --seed=N runs
// that one cell. --seed_base=B and --seeds=N widen the seed range (the
// nightly CI leg's sweep).
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot of the
// first failing cell (or the last cell when all held) and
// --trace_out=PATH the corresponding workload trace text — the
// artifacts CI uploads for replay.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/chaos.h"
#include "workload/generator.h"

namespace {

using namespace mmconf;

/// --node_loss: run every cell with WAL-shipping replication (one
/// follower per shard) and a scheduled primary-loss event, so follower
/// promotion is exercised under the standing chaos gate.
bool g_node_loss = false;

workload::GeneratorOptions OptionsFor(workload::ScenarioMix mix) {
  workload::GeneratorOptions options;
  options.mix = mix;
  switch (mix) {
    case workload::ScenarioMix::kLecture:
      options.rooms = 1;
      options.clients = 8;
      options.duration_micros = 12'000'000;
      break;
    case workload::ScenarioMix::kConsult:
      options.rooms = 3;
      options.clients = 10;
      options.duration_micros = 10'000'000;
      break;
    case workload::ScenarioMix::kBrowse:
      options.rooms = 5;
      options.clients = 6;
      options.duration_micros = 10'000'000;
      break;
    case workload::ScenarioMix::kMixed:
      options.rooms = 3;
      options.clients = 12;
      options.duration_micros = 12'000'000;
      break;
  }
  options.inject_node_loss = g_node_loss;
  return options;
}

struct ChaosCell {
  workload::ScenarioMix mix = workload::ScenarioMix::kConsult;
  uint64_t seed = 0;
  workload::ChaosReport report;
};

workload::WorkloadTrace GenerateCell(workload::ScenarioMix mix,
                                     uint64_t seed) {
  workload::WorkloadGenerator generator(seed, OptionsFor(mix));
  return generator.Generate();
}

ChaosCell RunCell(workload::ScenarioMix mix, uint64_t seed,
                  obs::MetricsRegistry* metrics) {
  ChaosCell cell;
  cell.mix = mix;
  cell.seed = seed;
  workload::WorkloadTrace trace = GenerateCell(mix, seed);
  workload::ChaosOptions chaos_options;
  if (g_node_loss) chaos_options.replication_followers = 1;
  workload::ChaosDriver driver(chaos_options, metrics);
  cell.report = driver.Run(trace).value();
  return cell;
}

void PrintCell(const ChaosCell& cell, const char* argv0) {
  const workload::ChaosReport& r = cell.report;
  std::printf("%-8s %-6llu %-7zu %-7zu %-5zu %-6zu %-5zu %-7zu %-8zu "
              "%-10zu %s\n",
              workload::ScenarioMixToString(cell.mix),
              static_cast<unsigned long long>(cell.seed), r.events_total,
              r.events_applied, r.events_skipped, r.migrations,
              r.shard_crashes, r.streams_opened, r.broadcast_frames,
              r.wire_bytes, r.invariants.AllHeld() ? "held" : "VIOLATED");
  if (!r.invariants.AllHeld()) {
    for (const std::string& violation : r.invariants.violations) {
      std::printf("    violation: %s\n", violation.c_str());
    }
    for (const std::string& sample : r.skip_samples) {
      std::printf("    skipped: %s\n", sample.c_str());
    }
    std::printf("    repro: %s --smoke%s --scenario=%s --seed=%llu "
                "--metrics_out=chaos-metrics.json "
                "--trace_out=chaos-trace.txt\n",
                argv0, g_node_loss ? " --node_loss" : "",
                workload::ScenarioMixToString(cell.mix),
                static_cast<unsigned long long>(cell.seed));
  }
}

std::string JsonRow(const ChaosCell& cell) {
  const workload::ChaosReport& r = cell.report;
  const workload::InvariantReport& inv = r.invariants;
  return bench::Format(
      "{\"scenario\": \"%s\", \"seed\": %llu, \"events\": %zu, "
      "\"applied\": %zu, \"skipped\": %zu, \"rooms_opened\": %zu, "
      "\"rooms_closed\": %zu, \"migrations\": %zu, "
      "\"migrations_failed\": %zu, \"shard_crashes\": %zu, "
      "\"node_losses\": %zu, \"promotions\": %zu, "
      "\"streams\": %zu, \"frames\": %zu, \"wire_bytes\": %zu, "
      "\"end_ms\": %.1f, \"max_stall_ms\": %.2f, \"max_t2c_ms\": %.2f, "
      "\"base_layers_intact\": %s, \"storage_recovery_exact\": %s, "
      "\"rooms_converged\": %s, \"serialize_converged\": %s, "
      "\"stalls_within_budget\": %s, \"t2c_within_budget\": %s, "
      "\"replication_failover_exact\": %s, \"invariants_held\": %s}",
      workload::ScenarioMixToString(cell.mix),
      static_cast<unsigned long long>(cell.seed), r.events_total,
      r.events_applied, r.events_skipped, r.rooms_opened, r.rooms_closed,
      r.migrations, r.migrations_failed, r.shard_crashes, r.node_losses,
      r.promotions, r.streams_opened, r.broadcast_frames, r.wire_bytes,
      static_cast<double>(r.end_micros) / 1000.0,
      static_cast<double>(r.max_stall_micros) / 1000.0,
      static_cast<double>(r.max_t2c_micros) / 1000.0,
      inv.base_layers_intact ? "true" : "false",
      inv.storage_recovery_exact ? "true" : "false",
      inv.rooms_converged ? "true" : "false",
      inv.serialize_converged ? "true" : "false",
      inv.stalls_within_budget ? "true" : "false",
      inv.t2c_within_budget ? "true" : "false",
      inv.replication_failover_exact ? "true" : "false",
      inv.AllHeld() ? "true" : "false");
}

void BM_GenerateTrace(benchmark::State& state) {
  auto mix = static_cast<workload::ScenarioMix>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCell(mix, seed++));
  }
}
BENCHMARK(BM_GenerateTrace)->Arg(0)->Arg(1)->Arg(3);

void BM_ChaosConsultRun(benchmark::State& state) {
  // One full consult-mix chaos run end to end (generation + replay +
  // invariant checks), all in virtual time.
  uint64_t seed = 1;
  for (auto _ : state) {
    obs::MetricsRegistry metrics;
    benchmark::DoNotOptimize(
        RunCell(workload::ScenarioMix::kConsult, seed++, &metrics));
  }
}
BENCHMARK(BM_ChaosConsultRun);

}  // namespace

int main(int argc, char** argv) {
  std::vector<workload::ScenarioMix> mixes = {
      workload::ScenarioMix::kLecture, workload::ScenarioMix::kConsult,
      workload::ScenarioMix::kMixed};
  std::optional<uint64_t> only_seed;
  uint64_t seed_base = 1;
  uint64_t num_seeds = 3;
  bench::Harness harness(/*traced=*/true);
  harness.Switch("node_loss", &g_node_loss);
  harness.Value("scenario", [&mixes](const std::string& name) {
    Result<workload::ScenarioMix> mix = workload::ScenarioMixFromString(name);
    if (mix.ok()) mixes = {mix.value()};
    return mix.ok();
  });
  harness.Count("seed", &only_seed);
  harness.Count("seed_base", &seed_base);
  harness.Count("seeds", &num_seeds, /*min=*/1);
  if (!harness.Start(argc, argv)) return 1;

  std::vector<uint64_t> seeds;
  if (only_seed) {
    seeds = {*only_seed};
  } else {
    for (uint64_t i = 0; i < num_seeds; ++i) seeds.push_back(seed_base + i);
  }

  std::printf("== chaos: %zu scenario mix(es) x %zu seed(s), "
              "net+storage+stream faults injected ==\n",
              mixes.size(), seeds.size());
  std::printf("%-8s %-6s %-7s %-7s %-5s %-6s %-5s %-7s %-8s %-10s %s\n",
              "mix", "seed", "events", "applied", "skip", "migr", "crash",
              "streams", "frames", "wire(B)", "invariants");
  std::vector<ChaosCell> cells;
  bool healthy = true;
  for (workload::ScenarioMix mix : mixes) {
    for (uint64_t seed : seeds) {
      obs::MetricsRegistry metrics;
      ChaosCell cell = RunCell(mix, seed, &metrics);
      PrintCell(cell, argv[0]);
      // Keep the first failing cell's artifacts (or the last cell's,
      // when everything held) for --metrics_out / --trace_out: capture
      // while no failure has been seen, then stop overwriting.
      if (healthy && harness.sinks().enabled()) {
        harness.SetArtifacts(metrics.Snapshot().ToJson(),
                             GenerateCell(mix, seed).ToText());
      }
      if (!cell.report.invariants.AllHeld()) healthy = false;
      cells.push_back(std::move(cell));
    }
  }
  return harness.Finish(
      healthy, bench::MakeReport("chaos_suite", "cells", cells, JsonRow));
}
