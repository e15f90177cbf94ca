#include "probe.h"

#include <time.h>

#include <chrono>
#include <cinttypes>
#include <map>

namespace mmconf::perfbench {
namespace {

struct NameTable {
  std::map<std::string, int> ids;
  std::vector<std::string> names;
};

NameTable& Names() {
  static NameTable table;
  return table;
}

}  // namespace

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int Probe::Intern(const std::string& name) {
  NameTable& table = Names();
  auto [it, inserted] =
      table.ids.emplace(name, static_cast<int>(table.names.size()));
  if (inserted) table.names.push_back(name);
  return it->second;
}

const std::string& Probe::NameOf(int id) { return Names().names.at(id); }

Probe::Scope Probe::Enter(int name) {
  if (!tracing_) return Scope(this, -1);
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.event = event_;
  span.start_ns = WallNanos();
  int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return Scope(this, index);
}

void Probe::Close(int index) {
  spans_[index].end_ns = WallNanos();
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Probe::WriteTsv(std::FILE* out, int64_t index_base) const {
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\n",
                 NameOf(span.name).c_str(), span.event,
                 span.parent < 0 ? int64_t{-1} : index_base + span.parent,
                 span.start_ns, span.end_ns);
  }
}

}  // namespace mmconf::perfbench
