// Replays one benchmark workload through the full conferencing stack for
// a wall-clock budget and prints one JSON line of measurements.
//
//   perfbench_replay --workload lecture|consult|archive --seed N
//                    --seconds S [--trace 0|1] [--spans PATH]
//                    [--fail-step K]
//
// A run replays the seed's trace again and again on a fresh stack until
// the budget is spent (at least twice). Every replay of one seed must
// reproduce the first byte for byte in its virtual-time metrics and work
// counters. With --trace 1 the first replay runs untraced (the tracing
// overhead baseline) and every later one records spans, written to
// --spans as TSV when the run ends. perfbench/run.py turns this output
// into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "replay.h"

namespace mmconf::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  int64_t fail_step = -1;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--fail-step") {
      args.fail_step = std::strtoll(value, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return false;
  }
  return !args.workload.empty();
}

/// Nearest-rank percentile of microsecond samples, in milliseconds.
double PercentileMs(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Folds one replay's per-step times into `best`, the fastest time seen
/// for each step so far. Interference from other work on the host only
/// ever adds time, so the per-step minimum over replays is far steadier
/// than any one replay's total.
void KeepFastest(std::vector<int64_t>& best,
                 const std::vector<int64_t>& replay) {
  if (best.empty()) {
    best = replay;
    return;
  }
  for (size_t i = 0; i < best.size() && i < replay.size(); ++i) {
    best[i] = std::min(best[i], replay[i]);
  }
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": " + Number(value);
  }
  return out + "}";
}

std::string List(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ", ";
    out += Quote(item);
  }
  return out + "]";
}

/// Deterministic part of a replay: the metrics virtual time decides plus
/// every work counter. Replays of one seed must agree on it exactly.
std::map<std::string, double> VirtualMetrics(const ReplayResult& r) {
  std::map<std::string, double> m;
  const double sim_s = static_cast<double>(r.sim_micros) / 1e6;
  m["t2c_ms_p50"] = PercentileMs(r.t2c_micros, 0.50);
  m["t2c_ms_p99"] = PercentileMs(r.t2c_micros, 0.99);
  m["join_ms_p99"] = PercentileMs(r.join_micros, 0.99);
  m["view_ms_p99"] = PercentileMs(r.view_micros, 0.99);
  m["stream.stall_ms_per_min"] =
      r.playback_micros > 0 ? static_cast<double>(r.stall_micros) / 1000.0 /
                                  (static_cast<double>(r.playback_micros) /
                                   60e6)
                            : 0;
  m["mean_layers"] =
      r.objects_played > 0 ? static_cast<double>(r.layers_played) /
                                 static_cast<double>(r.objects_played)
                           : 0;
  m["wire_kB_per_sim_s"] =
      sim_s > 0 ? static_cast<double>(r.wire_bytes) / 1000.0 / sim_s : 0;
  return m;
}

std::map<std::string, double> SampleCounts(const ReplayResult& r) {
  return {{"t2c", static_cast<double>(r.t2c_micros.size())},
          {"join", static_cast<double>(r.join_micros.size())},
          {"view", static_cast<double>(r.view_micros.size())},
          {"events", static_cast<double>(r.steps)},
          {"objects_played", static_cast<double>(r.objects_played)},
          {"sim_s", static_cast<double>(r.sim_micros) / 1e6}};
}

/// Work counters: registry counters, histogram sums, and the ratios the
/// per-layer catalogue names.
std::map<std::string, double> Counts(const ReplayResult& r) {
  std::map<std::string, double> m;
  for (const auto& [name, value] : r.counters.counters) {
    m[name] = static_cast<double>(value);
  }
  for (const auto& [name, hist] : r.counters.histograms) {
    m[name] = static_cast<double>(hist.sum);
  }
  auto get = [&m](const std::string& name) {
    auto found = m.find(name);
    return found != m.end() ? found->second : 0.0;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  m["prefetch.cache.hit_ratio"] =
      ratio(get("prefetch.cache.hits"),
            get("prefetch.cache.hits") + get("prefetch.cache.misses"));
  m["storage.cache.hit_ratio"] =
      ratio(get("storage.cache.hits"),
            get("storage.cache.hits") + get("storage.cache.misses"));
  m["stream.enhancement_drop_ratio"] =
      ratio(get("stream.chunks.enhancement_dropped"), get("stream.chunks.sent"));
  m["rel.retry_ratio"] = ratio(get("rel.retries"), get("rel.sent"));
  m["workload.late_ms_p99"] = PercentileMs(r.late_micros, 0.99);
  m["workload.events"] = static_cast<double>(r.steps);
  return m;
}

constexpr int kSpareSetups = 2;
constexpr int kMaxTracedReplays = 2;

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_replay --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--spans PATH] [--fail-step K]\n");
    return 2;
  }
  Result<Workload> workload = WorkloadFromName(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::FILE* spans = nullptr;
  if (args.trace) {
    if (args.spans_path.empty()) {
      std::fprintf(stderr, "--trace 1 needs --spans PATH\n");
      return 2;
    }
    spans = std::fopen(args.spans_path.c_str(), "w");
    if (spans == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 2;
    }
  }

  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t run_start = WallNanos();
  std::vector<std::string> violations;
  std::vector<std::string> failures;
  ReplayResult first;
  double first_peak_rss_mb = 0;
  std::string first_digest;
  std::string first_trace;
  std::vector<double> setup_s;
  // Fastest wall and CPU time of each step over the untraced replays, and
  // fastest CPU time over the traced ones (for the tracing overhead).
  std::vector<int64_t> event_nanos, event_cpu_nanos, traced_cpu_nanos;
  size_t untraced = 0;
  int64_t span_index = 0;
  size_t attempted = 0, failed = 0;
  int reps = 0;
  while (true) {
    const int64_t iteration_start = WallNanos();
    // Set-up is short next to a replay, so each replay also times a few
    // spare set-ups that are torn down unused: setup_s is the median of
    // them all.
    for (int spare = 0; spare < kSpareSetups; ++spare) {
      Probe spare_probe;
      const int64_t start = WallNanos();
      Replayer spare_replayer(workload.value(), args.seed, &spare_probe);
      Status spare_status = spare_replayer.Setup();
      setup_s.push_back(static_cast<double>(WallNanos() - start) / 1e9);
      if (!spare_status.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     spare_status.ToString().c_str());
        return 1;
      }
    }
    const int64_t rep_start = WallNanos();
    // Traced runs alternate untraced and traced replays: the untraced
    // ones are the baseline of the tracing overhead. Spans are kept for
    // the first few traced replays only, so their file stays small.
    const bool traced = args.trace && reps % 2 == 1 &&
                        reps - static_cast<int>(untraced) < kMaxTracedReplays;
    Probe probe;
    probe.set_tracing(traced);
    probe.set_event_base(static_cast<uint64_t>(reps) * 100'000'000);
    Replayer replayer(workload.value(), args.seed, &probe);
    replayer.FailStep(args.fail_step);
    Status status;
    {
      probe.SetEvent(probe.event_base());
      PB_SPAN(probe, "workload.setup");
      status = replayer.Setup();
    }
    setup_s.push_back(static_cast<double>(WallNanos() - rep_start) / 1e9);
    if (status.ok()) status = replayer.Run();
    if (!status.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", status.ToString().c_str());
      return 1;
    }
    replayer.Check();
    const ReplayResult& result = replayer.result();
    if (traced) {
      KeepFastest(traced_cpu_nanos, result.event_cpu_nanos);
    } else {
      KeepFastest(event_nanos, result.event_nanos);
      KeepFastest(event_cpu_nanos, result.event_cpu_nanos);
      ++untraced;
    }
    std::string digest = Object(VirtualMetrics(result)) +
                         Object(SampleCounts(result)) +
                         List(result.violations) + List(result.failures) +
                         result.counters.ToJson();
    if (reps == 0) {
      // Peak memory of the first replay: later replays reuse what the
      // allocator kept, and how many fit in the budget depends on the
      // host's speed.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      first_peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      first = result;
      first_digest = digest;
      first_trace = replayer.trace().ToText();
      violations = result.violations;
      failures = result.failures;
      attempted = result.steps;
      failed = result.failed_steps;
    } else if (digest != first_digest) {
      violations.push_back("replay " + std::to_string(reps) +
                           " of seed " + std::to_string(args.seed) +
                           " differs from the first replay");
    }
    if (spans != nullptr) {
      probe.WriteTsv(spans, span_index);
      span_index += static_cast<int64_t>(probe.size());
    }
    ++reps;
    const int64_t now = WallNanos();
    const int min_reps = 2;
    if (reps >= min_reps &&
        now - run_start + (now - iteration_start) > budget_ns) {
      break;
    }
  }
  if (spans != nullptr && std::fclose(spans) != 0) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    return 1;
  }

  // The seed argument must reach the generator: another seed, another
  // trace.
  workload::WorkloadTrace other =
      ComposeTrace(ShapeOf(workload.value()), args.seed + 1);
  if (other.ToText() == first_trace) {
    violations.push_back("seeds " + std::to_string(args.seed) + " and " +
                         std::to_string(args.seed + 1) +
                         " generated the same trace");
  }

  std::map<std::string, double> e2e = VirtualMetrics(first);
  std::map<std::string, double> counts = Counts(first);
  // Playout stalls are rare events: too seed-sensitive to gate, so they
  // are reported with the stream layer's counts.
  counts["stream.stall_ms_per_min"] = e2e["stream.stall_ms_per_min"];
  e2e.erase("stream.stall_ms_per_min");
  e2e["setup_s"] = Median(setup_s);
  // CPU per simulated second of the replay as fast as the host ran each
  // step: the sum over steps of the fastest untraced time.
  auto cpu_per_sim_s = [&first](const std::vector<int64_t>& step_nanos) {
    int64_t total = 0;
    for (int64_t nanos : step_nanos) total += nanos;
    return first.sim_micros > 0
               ? static_cast<double>(total) / 1e6 /
                     (static_cast<double>(first.sim_micros) / 1e6)
               : 0;
  };
  // The replay's CPU and wall cost follow the memory traffic of other
  // tenants of a shared host by a third or more within minutes, more than
  // any end-to-end bound allows, so they are reported with the layers.
  counts["workload.cpu_ms_per_sim_s"] = cpu_per_sim_s(event_cpu_nanos);
  counts["workload.event_ms_p50"] = 0;
  counts["workload.event_ms_p90"] = 0;
  if (!event_nanos.empty()) {
    // Percentiles of nanoseconds, reported in milliseconds.
    std::vector<int64_t> sorted = event_nanos;
    std::sort(sorted.begin(), sorted.end());
    auto at = [&sorted](double p) {
      size_t rank = static_cast<size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      rank = std::clamp<size_t>(rank, 1, sorted.size());
      return static_cast<double>(sorted[rank - 1]) / 1e6;
    };
    counts["workload.event_ms_p50"] = at(0.50);
    counts["workload.event_ms_p90"] = at(0.90);
  }
  e2e["peak_rss_mb"] = first_peak_rss_mb;

  const double checked = static_cast<double>(attempted);
  counts["workload.error_rate"] =
      checked > 0 ? static_cast<double>(failed + violations.size()) / checked
                  : 0;
  std::map<std::string, double> run = {
      {"replays", static_cast<double>(reps)},
      {"traced_replays",
       static_cast<double>(reps) - static_cast<double>(untraced)},
      {"cpu_ms_per_sim_s_untraced", counts["workload.cpu_ms_per_sim_s"]},
      {"cpu_ms_per_sim_s_traced", cpu_per_sim_s(traced_cpu_nanos)},
      {"untraced_replays", static_cast<double>(untraced)},
      {"event_samples", static_cast<double>(event_nanos.size())}};

  const bool correct = failed == 0 && violations.empty();
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"violations\": %s, \"failures\": %s, \"run\": %s, \"samples\": %s, "
      "\"e2e\": %s, \"counts\": %s}\n",
      Quote(args.workload).c_str(), args.seed, correct ? "true" : "false",
      attempted, failed + violations.size(), List(violations).c_str(),
      List(failures).c_str(), Object(run).c_str(),
      Object(SampleCounts(first)).c_str(), Object(e2e).c_str(),
      Object(counts).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mmconf::perfbench

int main(int argc, char** argv) { return mmconf::perfbench::Main(argc, argv); }
