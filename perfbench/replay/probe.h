#ifndef PERFBENCH_REPLAY_PROBE_H_
#define PERFBENCH_REPLAY_PROBE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mmconf::perfbench {

/// Monotonic wall clock, nanoseconds.
int64_t WallNanos();
/// CPU time consumed by the whole process, nanoseconds.
int64_t CpuNanos();

/// One timed call: a span around a call the replay makes into a layer's
/// public function. `parent` is the index of the enclosing span (the
/// trace event or set-up phase that caused it), -1 for a root; every
/// span of one trace event carries that event's `event` id.
struct Span {
  int name = 0;
  int parent = -1;
  uint64_t event = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. With tracing off every scope is a no-op, so
/// untraced runs pay one branch per call. Spans are written out once,
/// when the run ends (WriteTsv).
class Probe {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Probe* probe, int index) : probe_(probe), index_(index) {}
    ~Scope() {
      if (index_ >= 0) probe_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
    int index_;
  };

  /// Process-wide id of a span name ("<module>.<call>").
  static int Intern(const std::string& name);
  static const std::string& NameOf(int id);

  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }

  /// Id shared by every span opened until the next call.
  void SetEvent(uint64_t event) { event_ = event; }
  /// Offset of this probe's event ids, so ids stay unique across the
  /// replays of one run.
  void set_event_base(uint64_t base) { event_base_ = base; }
  uint64_t event_base() const { return event_base_; }

  Scope Enter(int name);

  /// Appends every recorded span as `name event parent start_ns end_ns`
  /// lines (tab separated; parent is a line index within this probe's
  /// block, -1 for roots, offset by `index_base`).
  void WriteTsv(std::FILE* out, int64_t index_base) const;
  size_t size() const { return spans_.size(); }

 private:
  void Close(int index);

  bool tracing_ = false;
  uint64_t event_ = 0;
  uint64_t event_base_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace mmconf::perfbench

#define PERFBENCH_CONCAT_INNER_(a, b) a##b
#define PERFBENCH_CONCAT_(a, b) PERFBENCH_CONCAT_INNER_(a, b)

/// Times the rest of the enclosing block as a span named `name`.
#define PB_SPAN(probe, name)                                              \
  static const int PERFBENCH_CONCAT_(pb_name_, __LINE__) =                \
      ::mmconf::perfbench::Probe::Intern(name);                                   \
  ::mmconf::perfbench::Probe::Scope PERFBENCH_CONCAT_(pb_scope_, __LINE__) =      \
      (probe).Enter(PERFBENCH_CONCAT_(pb_name_, __LINE__))

#endif  // PERFBENCH_REPLAY_PROBE_H_
