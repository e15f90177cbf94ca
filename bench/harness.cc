#include "harness.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace mmconf::bench {
namespace {

/// Creates (or keeps) `path` to prove it writable; the report later
/// overwrites it.
bool ProbeWritable(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fclose(out);
  return true;
}

/// Writes `content` to `path`, reporting any failure, including the
/// buffered-write errors (e.g. ENOSPC) that only ferror/fclose see.
bool WriteFileChecked(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), out);
  bool ok = written == content.size() && std::ferror(out) == 0;
  if (std::fclose(out) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "failed writing %s\n", path.c_str());
  return ok;
}

std::function<bool(const std::string&)> PathFlag(std::string* path) {
  return [path](const std::string& text) {
    *path = text;
    return !text.empty();
  };
}

}  // namespace

std::string Format(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string text(static_cast<size_t>(size), '\0');
  std::vsnprintf(text.data(), text.size() + 1, format, args);
  va_end(args);
  return text;
}

std::optional<uint64_t> ParseCount(const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

int FigureBenchMain(int argc, char** argv, void (*print_figure)()) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  print_figure();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

Harness::Harness(bool traced) {
  Switch("smoke", &smoke_);
  Value("json_out", PathFlag(&json_path_));
  Value("metrics_out", PathFlag(&metrics_path_));
  if (traced) Value("trace_out", PathFlag(&trace_path_));
}

void Harness::Switch(const std::string& name, bool* on) {
  flags_.push_back({"--" + name, /*takes_value=*/false,
                    [on](const std::string&) { return *on = true; }});
}

void Harness::Value(const std::string& name,
                    std::function<bool(const std::string&)> accept) {
  flags_.push_back({"--" + name, /*takes_value=*/true, std::move(accept)});
}

bool Harness::Reject(const char* what, const std::string& arg) const {
  std::string accepted;
  for (const Flag& flag : flags_) {
    accepted += " " + flag.name + (flag.takes_value ? "=" : "");
  }
  std::fprintf(stderr, "%s: %s %s\naccepted:%s --benchmark_*\n",
               program_.c_str(), what, arg.c_str(), accepted.c_str());
  return false;
}

bool Harness::Start(int argc, char** argv) {
  program_ = argv[0];
  std::vector<char*> benchmark_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--benchmark_", 0) == 0) {
      benchmark_args.push_back(argv[i]);
      continue;
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) return Reject("unknown flag", arg);
    bool has_value = eq != std::string::npos;
    if (has_value != flag->takes_value ||
        !flag->set(has_value ? arg.substr(eq + 1) : "")) {
      return Reject("malformed flag", arg);
    }
  }
  int benchmark_argc = static_cast<int>(benchmark_args.size());
  benchmark::Initialize(&benchmark_argc, benchmark_args.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_args.data())) {
    return false;
  }
  for (const std::string* path : {&json_path_, &metrics_path_, &trace_path_}) {
    if (!path->empty() && !ProbeWritable(*path)) return false;
  }
  if (!metrics_path_.empty()) sinks_.metrics = &registry_;
  if (!trace_path_.empty()) sinks_.tracer = &tracer_;
  return true;
}

void Harness::SetArtifacts(std::string metrics_json, std::string trace) {
  metrics_artifact_ = std::move(metrics_json);
  trace_artifact_ = std::move(trace);
}

int Harness::Finish(bool verdict, const Report& report,
                    void (*full_only)()) {
  std::string json = Format("{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n"
                            "  \"%s\": [\n",
                            report.bench.c_str(), smoke_ ? "true" : "false",
                            report.key.c_str());
  for (size_t i = 0; i < report.rows.size(); ++i) {
    json += "    " + report.rows[i] +
            (i + 1 < report.rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  bool wrote = json_path_.empty() || WriteFileChecked(json_path_, json);
  if (!metrics_path_.empty()) {
    if (!metrics_artifact_) metrics_artifact_ = registry_.Snapshot().ToJson();
    wrote = WriteFileChecked(metrics_path_, *metrics_artifact_) && wrote;
  }
  if (!trace_path_.empty()) {
    if (!trace_artifact_) trace_artifact_ = tracer_.ToJson();
    wrote = WriteFileChecked(trace_path_, *trace_artifact_) && wrote;
  }
  if (!smoke_) {
    if (full_only != nullptr) full_only();
    benchmark::RunSpecifiedBenchmarks();
  }
  return verdict && wrote ? 0 : 1;
}

}  // namespace mmconf::bench
