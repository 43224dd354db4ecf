// The benchmark's workloads. Each drives the simulator only through public
// functions of its modules and records ops, spans, counters and simulated
// values into the Recorder (see perfbench/README.md for the metric table).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void run_ssgd_train(const Args& args, Recorder& rec);
void run_serve_ladder(const Args& args, Recorder& rec);
void run_sched_trace(const Args& args, Recorder& rec);

/// Host reference kernels. The host is shared, and other tenants' load
/// moves how fast the same op runs by up to 1.6x within minutes. A kernel
/// timed right before each measured op and each set-up sees the same host
/// conditions, and reduce.py scales the op's throughput and the set-up's
/// time by its time (ops_per_ref_s, setup_s). Each returns its own wall
/// time in seconds; each workload uses the one whose host costs move most
/// like its ops do:
/// - ref_sort_s: copies and sorts 100k cache-resident doubles (branchy
///   compute; ssgd-train's float kernels).
/// - ref_alloc_sort_s: inserts 60k keys into a fresh hash map, then
///   allocates and sorts 100k doubles (heap and page traffic plus compute;
///   serve-ladder's and sched-trace's allocating, pointer-heavy code).
double ref_sort_s();
double ref_alloc_sort_s();

/// The measured loop. One untraced warm-up op first (buffers allocated,
/// caches filled; checked but not timed), then: untraced runs spend all of
/// `args.seconds` in one untraced phase; traced runs spend the first half
/// untraced and the second half traced, so trace.overhead_ratio compares
/// the same ops with tracing off and on. `host_ref` runs right before each
/// measured op and its time is recorded for that op. `body(op, kind)` runs
/// one op and records it under `kind` when that is non-null ("warmup");
/// each phase runs at least `min_ops`. `between`, when set, runs after
/// every measured op of an untraced run (set-up repetitions spread over the
/// whole run, so setup_s sees the same host conditions as the ops).
void run_phases(const Args& args, Recorder& rec, int min_ops,
                double (*host_ref)(),
                const std::function<void(int op, const char* kind)>& body,
                const std::function<void()>& between = {});

/// One timed set-up: times `host_ref` for the set-up's op, then runs
/// `fn(op, check)` and records it as a "setup" op and a setup_s sample.
/// Returns whether its checks passed.
bool timed_setup(Recorder& rec, double (*host_ref)(),
                 const std::function<void(int op, OpCheck& check)>& fn);

/// Runs `fn`, turning an exception into a failed check.
template <typename Fn>
void guarded(OpCheck& check, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    check.fail(std::string("threw: ") + e.what());
  }
}

}  // namespace perfbench
