// The one harness the bench binaries share. A gated bench gets
// command-line flags (unknown and malformed ones rejected before
// anything is written), output-path probing, the checked
// {"bench", "smoke", "<key>": [rows]} report writer, the metrics
// snapshot and trace dumps, the exit code, and the wall-clock helper.
// Its main() reads:
//
//   bench::Harness harness(/*traced=*/true);
//   if (!harness.Start(argc, argv)) return 1;
//   std::vector<SweepRow> rows = RunSweep(harness.smoke(), harness.sinks());
//   return harness.Finish(
//       CheckInvariants(rows),
//       bench::MakeReport("streaming_bandwidth_sweep", "sweep", rows,
//                         JsonRow));
//
// Every gated bench accepts --smoke, --json_out=PATH and
// --metrics_out=PATH; a traced bench also --trace_out=PATH; a bench may
// declare more (Switch, Count, Value). Each report is written only when
// its flag names a path, so no run lands on a checked-in baseline by
// default. --benchmark_* flags belong to Google Benchmark, which runs
// after the report in full (non --smoke) mode. Anything else exits 1.
//
// A figure bench (a paper figure table plus Google Benchmark timings,
// no report) hands its main() to FigureBenchMain.

#ifndef MMCONF_BENCH_HARNESS_H_
#define MMCONF_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmconf::bench {

/// Mean wall-clock microseconds per call over `reps` calls of `fn`.
template <typename Fn>
double MeanWallMicros(int reps, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) fn();
  std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / reps;
}

/// printf into a string. Benches spell their report rows with it, so
/// each row's format string fixes the precision its baseline carries.
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// main() of a figure bench: rejects (exit 1) any argument Google
/// Benchmark does not take before printing anything, then prints the
/// figure and runs the benchmarks.
int FigureBenchMain(int argc, char** argv, void (*print_figure)());

/// A decimal count: digits only, parsed completely, no overflow.
std::optional<uint64_t> ParseCount(const std::string& text);

/// {"bench": <bench>, "smoke": ..., "<key>": [<rows>]}
struct Report {
  std::string bench;
  std::string key;
  std::vector<std::string> rows;  ///< one JSON object each
};

template <typename Row, typename ToJson>
Report MakeReport(std::string bench, std::string key,
                  const std::vector<Row>& rows, ToJson to_json) {
  Report report{std::move(bench), std::move(key), {}};
  for (const Row& row : rows) report.rows.push_back(to_json(row));
  return report;
}

/// Observability sinks a bench threads through its sweep; each is null
/// unless its output flag was given.
struct ObsSinks {
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  bool enabled() const { return metrics != nullptr || tracer != nullptr; }

  /// Points the tracer at sweep point `index`'s clock and pid namespace
  /// (8 pids apart, so node 0 of point N does not collide with node 0
  /// of point 0).
  void BeginFleet(const Clock* clock, int index) const {
    if (tracer == nullptr) return;
    tracer->SetClock(clock);
    tracer->set_pid_offset(index * 8);
  }
};

class Harness {
 public:
  /// `traced` says whether the bench accepts --trace_out=.
  explicit Harness(bool traced);

  /// Declares `--name`, which sets `*on`.
  void Switch(const std::string& name, bool* on);
  /// Declares `--name=TEXT`; `accept` stores TEXT or returns false to
  /// reject it.
  void Value(const std::string& name,
             std::function<bool(const std::string&)> accept);
  /// Declares `--name=N` (see ParseCount), N >= `min`. `Target` is
  /// uint64_t or std::optional<uint64_t>.
  template <typename Target>
  void Count(const std::string& name, Target* target, uint64_t min = 0) {
    Value(name, [target, min](const std::string& text) {
      std::optional<uint64_t> count = ParseCount(text);
      if (!count || *count < min) return false;
      *target = *count;
      return true;
    });
  }

  /// Parses argv, then probes every output path so a bad one fails in
  /// milliseconds rather than after the sweep. False means exit 1; the
  /// reason is on stderr, and a rejected flag leaves no file behind.
  bool Start(int argc, char** argv);

  bool smoke() const { return smoke_; }
  const ObsSinks& sinks() const { return sinks_; }
  obs::MetricsRegistry* metrics() const { return sinks_.metrics; }

  /// What --metrics_out= and --trace_out= receive instead of the
  /// registry snapshot and the tracer's timeline.
  void SetArtifacts(std::string metrics_json, std::string trace);

  /// Writes the report, the metrics snapshot and the trace, each to
  /// the path its flag gave (none by default). In full mode then runs
  /// `full_only` (when given) and Google Benchmark. Returns the exit
  /// code: 0 iff `verdict` holds and every write succeeded.
  int Finish(bool verdict, const Report& report,
             void (*full_only)() = nullptr);

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    std::function<bool(const std::string&)> set;
  };

  bool Reject(const char* what, const std::string& arg) const;

  std::string program_;
  std::vector<Flag> flags_;
  bool smoke_ = false;
  std::string json_path_;
  std::string metrics_path_;
  std::string trace_path_;
  obs::MetricsRegistry registry_;
  obs::Tracer tracer_{nullptr};
  ObsSinks sinks_;
  std::optional<std::string> metrics_artifact_;
  std::optional<std::string> trace_artifact_;
};

}  // namespace mmconf::bench

#endif  // MMCONF_BENCH_HARNESS_H_
