// Shared --json support for the custom-main benchmarks: each bench collects
// its headline numbers as named metrics and, given an output path (the
// `--json <path>` a tool's command line carries), writes them as one JSON
// object
//
//   {"bench": "<name>", "schema_version": N, "wall_clock_s": W,
//    "metrics": {...}}
//
// on destruction — the machine-readable twin of the printed tables, suitable
// for checking into BENCH_*.json files or diffing across commits. The
// schema_version field lets downstream tooling (CI gates, trend dashboards)
// detect emitter-format changes instead of misparsing old files; bump
// kBenchJsonSchemaVersion whenever the envelope shape changes. With an empty
// path the helper is inert. Every bench, bench_gemm included, reports
// through it.
#pragma once

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/cli.h"

namespace swcaffe::bench {

/// Version of the BENCH_*.json envelope: v2 added this field itself; v3
/// added bench_overlap's hierarchical/compressed full-machine series
/// (hier_* metrics to 40,960 nodes); v4 added the top-level wall_clock_s
/// self-timing (harness wall clock from JsonBench construction to the write
/// — the number the simulator perf-smoke gate budgets). wall_clock_s varies
/// run to run by nature: byte-determinism diffs must normalize it away (see
/// the sed step in the CI bench jobs) — it is a top-level envelope field,
/// never a metric, precisely so that one normalization handles every bench.
inline constexpr int kBenchJsonSchemaVersion = 4;

/// Sanitizes a human-facing label ("VGG-16 (B=16/CG)") into a metric key
/// ("vgg_16_b_16_cg"): lowercase, runs of non-alphanumerics collapse to '_'.
inline std::string metric_key(const std::string& label) {
  std::string out;
  for (char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// The `--json PATH` of a bench command line, read with the shared CLI
/// parser; `extra` declares a bench's own flags. A usage error or --help
/// ends the process here with the shared exit codes.
inline std::string json_flag(int argc, char** argv,
                             std::vector<base::cli::Flag> extra = {}) {
  std::string path;
  extra.push_back(base::cli::flag("--json", &path, "PATH", "write metrics"));
  base::cli::Parser("usage: " + std::string(argv[0]) + " [flags]\n", extra)
      .parse_or_exit(argc, argv);
  return path;
}

class JsonBench {
 public:
  /// Writes to `path` on destruction; an empty path writes nothing.
  JsonBench(std::string bench_name, std::string path)
      : name_(std::move(bench_name)),
        start_(std::chrono::steady_clock::now()),
        path_(std::move(path)) {}

  JsonBench(const JsonBench&) = delete;
  JsonBench& operator=(const JsonBench&) = delete;

  ~JsonBench() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path_.c_str());
      return;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    char wall_buf[32];
    std::snprintf(wall_buf, sizeof(wall_buf), "%.6f", wall);
    out << "{\"bench\": \"" << name_ << "\", \"schema_version\": "
        << kBenchJsonSchemaVersion << ", \"wall_clock_s\": " << wall_buf
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << metrics_[i].first << "\": ";
      const double v = metrics_[i].second;
      if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out << buf;
      } else {
        out << "null";  // JSON has no Inf/NaN literals
      }
    }
    out << "}}\n";
    std::printf("wrote %zu metrics to %s\n", metrics_.size(), path_.c_str());
  }

  /// Records one metric; later values with the same name are kept as-is
  /// (the object is written in insertion order, duplicates included, which
  /// standard parsers resolve last-wins).
  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace swcaffe::bench
