// In-memory span and op recorder of the benchmark.
//
// Everything the benchmark measures goes through one Recorder: op records
// (one timed unit of work with its output checks), setup samples, spans
// around calls into the simulator's modules (traced runs only), counters
// and simulated values. Nothing is reduced here: write_json() dumps the raw
// record when the run ends and perfbench/reduce.py turns it into metrics.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host wall clock (steady), seconds since the first call.
double now_s();

struct SpanRecord {
  std::string name;
  int op = -1;      ///< shared by every span of one op
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double start_s = 0.0;
  double end_s = 0.0;
};

struct OpRecord {
  int op = -1;       ///< op id (several records may share one, e.g. rungs)
  std::string kind;  ///< "setup", "step", "rung:x1", "trace", "check", ...
  double wall_s = 0.0;
  double items = 0.0;  ///< work units done (samples, requests, jobs)
  bool ok = true;
  bool traced = false;  ///< set by Recorder::record_op
};

class Recorder {
 public:
  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }

  int next_op() { return next_op_++; }

  /// Opens a span (no-op returning -1 when tracing is off).
  int begin(const char* name, int op);
  void end(int span);

  void record_op(OpRecord r);
  void setup_sample(double seconds) { setup_s_.push_back(seconds); }
  /// Host reference kernel time measured right before op `op`.
  void host_ref(int op, double seconds) {
    host_ref_.emplace_back(op, seconds);
  }
  void failure(const std::string& what) { failures_.push_back(what); }
  void counter(const std::string& name, double value) {
    counters_[name] = value;
  }
  void sim(const std::string& name, double value) { sim_[name] = value; }
  /// Free-form JSON value attached under `key` (already serialized).
  void extra(const std::string& key, std::string json) {
    extra_[key] = std::move(json);
  }

  void write_json(std::FILE* out, const std::string& workload,
                  std::uint64_t seed, bool trace) const;

 private:
  bool tracing_ = false;
  int next_op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::vector<OpRecord> ops_;
  std::vector<double> setup_s_;
  std::vector<std::pair<int, double>> host_ref_;
  std::vector<std::string> failures_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> sim_;
  std::map<std::string, std::string> extra_;
};

/// RAII span around one call into a module.
class Span {
 public:
  Span(Recorder& rec, const char* name, int op)
      : rec_(rec), idx_(rec.begin(name, op)) {}
  ~Span() { rec_.end(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder& rec_;
  int idx_;
};

/// Output checks of one op: collects failures and the op's verdict.
struct OpCheck {
  Recorder& rec;
  std::string kind;
  bool ok = true;

  void expect(bool cond, const std::string& what) {
    if (!cond) fail(what);
  }
  void fail(const std::string& what) {
    ok = false;
    rec.failure(kind + ": " + what);
  }
};

/// Deterministic input generator of the benchmark (splitmix64). Inputs are
/// drawn from the benchmark's own generator so a change to the program's
/// RNG can never change what the benchmark feeds it.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
