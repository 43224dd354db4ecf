// sched-trace: seeded job traces (AlexNet / VGG-16 / ResNet-50 jobs of gang
// width 2, 4 or 8) offered above the capacity of a 32-node partition of
// four supernodes, scheduled fair-share with elastic shrink/grow, so the
// backlog grows and preemption and resize run often. The jobs are priced in
// closed form (swdnn layer estimators, topo collective costs).
//
// The host cost of a schedule grows much faster than its job count (150
// jobs cost about twice what 120 do), so one trace's cost depends strongly
// on its draw. Each trace is therefore cut to exactly kTraceJobs jobs, and
// one op schedules kTraces independent traces.
#include <vector>

#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "hw/cost_model.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupsPerOp = 1;  ///< set-ups after each measured op
constexpr int kClusterNodes = 32;
constexpr int kSupernode = 8;
constexpr int kTraces = 16;        ///< job traces scheduled per op
constexpr int kTraceJobs = 150;    ///< jobs per trace
constexpr double kJobRate = 0.2;   ///< jobs per simulated second

bool same_schedule(const swcaffe::sched::ScheduleResult& a,
                   const swcaffe::sched::ScheduleResult& b) {
  if (a.spans.size() != b.spans.size()) return false;
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const auto& x = a.spans[i];
    const auto& y = b.spans[i];
    if (x.job != y.job || x.span != y.span || x.kind != y.kind ||
        x.nodes != y.nodes || x.start_s != y.start_s || x.end_s != y.end_s ||
        x.iters != y.iters) {
      return false;
    }
  }
  const swcaffe::sched::SchedMetrics& m = a.metrics;
  const swcaffe::sched::SchedMetrics& n = b.metrics;
  return m.finished == n.finished && m.preemptions == n.preemptions &&
         m.resizes == n.resizes && m.horizon_s == n.horizon_s &&
         m.utilization == n.utilization && m.busy_node_s == n.busy_node_s &&
         m.wait_p95_s == n.wait_p95_s && m.slowdown_p95 == n.slowdown_p95;
}

bool same_jobs(const std::vector<swcaffe::sched::JobSpec>& a,
               const std::vector<swcaffe::sched::JobSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.id != y.id || x.model != y.model || x.batch != y.batch ||
        x.replicas != y.replicas || x.min_nodes != y.min_nodes ||
        x.iters != y.iters || x.priority != y.priority ||
        x.tenant != y.tenant || x.submit_s != y.submit_s) {
      return false;
    }
  }
  return true;
}

/// The first kTraceJobs jobs of trace `k` (ids are arrival indices, so the
/// prefix is a complete trace of its own).
std::vector<swcaffe::sched::JobSpec> make_trace(std::uint64_t seed, int k) {
  using namespace swcaffe;
  sched::WorkloadSpec wspec;
  wspec.arrivals.kind = serve::ArrivalKind::kPoisson;
  wspec.arrivals.rate = kJobRate;
  // Twice the expected span, so the cut never comes up short.
  wspec.arrivals.duration_s = 2.0 * kTraceJobs / kJobRate;
  wspec.arrivals.seed = derive_seed(seed, 200 + 2 * k);
  wspec.seed = derive_seed(seed, 201 + 2 * k);
  std::vector<sched::JobSpec> jobs = sched::generate_workload(wspec);
  if (jobs.size() > static_cast<std::size_t>(kTraceJobs)) {
    jobs.resize(kTraceJobs);
  }
  return jobs;
}

}  // namespace

void run_sched_trace(const Args& args, Recorder& rec) {
  using namespace swcaffe;
  const hw::CostModel cost;
  sched::SchedOptions opts;
  opts.cluster_nodes = kClusterNodes;
  opts.supernode_size = kSupernode;
  opts.policy = sched::Policy::kFairShare;
  opts.elastic = true;

  // Setup: generate the job traces and price every job's profile.
  std::vector<std::vector<sched::JobSpec>> traces(kTraces);
  const auto setup = [&](int op, OpCheck& check,
                         std::vector<std::vector<sched::JobSpec>>& out) {
    for (int k = 0; k < kTraces; ++k) {
      {
        Span s(rec, "sched.generate_workload", op);
        out[k] = make_trace(args.seed, k);
      }
      check.expect(out[k].size() == kTraceJobs, "short job trace");
      Span s(rec, "sched.profile_job", op);
      for (const sched::JobSpec& j : out[k]) {
        const sched::JobProfile p = sched::profile_job(cost, j);
        check.expect(p.replica_iter_s > 0.0, "unpriced job " + j.name());
      }
    }
  };
  rec.set_tracing(args.trace);
  if (!timed_setup(rec, ref_alloc_sort_s, [&](int op, OpCheck& check) {
        setup(op, check, traces);
      })) {
    return;
  }
  // Later set-ups, between the measured ops, must draw the same traces.
  const auto setup_again = [&] {
    for (int r = 0; r < kSetupsPerOp; ++r) {
      timed_setup(rec, ref_alloc_sort_s, [&](int op, OpCheck& check) {
        std::vector<std::vector<sched::JobSpec>> again(kTraces);
        setup(op, check, again);
        for (int k = 0; k < kTraces; ++k) {
          check.expect(same_jobs(again[k], traces[k]),
                       "job trace differs between set-ups");
        }
      });
    }
  };

  std::vector<sched::ScheduleResult> first(kTraces);
  bool have_first = false;
  const auto run_op = [&](int op, const char* warmup) {
    for (int k = 0; k < kTraces; ++k) {
      OpCheck check{rec, warmup ? warmup : "trace"};
      const std::vector<sched::JobSpec>& jobs = traces[k];
      sched::ScheduleResult res;
      const double t0 = now_s();
      guarded(check, [&] {
        Span root(rec, "op.trace", op);
        Span s(rec, "sched.simulate_schedule", op);
        res = sched::simulate_schedule(cost, jobs, opts);
      });
      const double wall = now_s() - t0;
      const sched::SchedMetrics& m = res.metrics;
      check.expect(m.jobs == static_cast<int>(jobs.size()) &&
                       m.finished == m.jobs,
                   std::to_string(m.jobs - m.finished) + " jobs unfinished");
      check.expect(m.busy_node_s == m.run_node_s + m.overhead_node_s,
                   "busy != run + overhead node-seconds");
      // The timeline check runs on the first schedule of each trace and on
      // every traced one; every other schedule must equal the first bit for
      // bit.
      if (!have_first || rec.tracing()) {
        guarded(check, [&] {
          check::TimelineGraph graph;
          {
            Span s(rec, "check.sched_extract", op);
            graph = check::timeline_from_schedule("perfbench-sched",
                                                  kClusterNodes, res.spans,
                                                  res.jobs);
          }
          check::Report report;
          {
            Span s(rec, "check.sched_verify", op);
            report = check::verify_timeline(graph);
          }
          check.expect(report.empty(), "schedule timeline not silent: " +
                                           report.summary());
        });
      }
      if (!have_first) {
        first[k] = std::move(res);
      } else {
        check.expect(same_schedule(res, first[k]),
                     "schedule differs from the first run");
      }
      rec.record_op({op, check.kind, wall, static_cast<double>(jobs.size()),
                     check.ok});
    }
    have_first = true;
  };
  run_phases(args, rec, 3, ref_alloc_sort_s, run_op, setup_again);

  // Per-op totals over the kTraces traces; simulated values are their means.
  double spans = 0, preemptions = 0, resizes = 0, overhead = 0, busy = 0;
  double slowdown = 0, wait = 0, util = 0;
  for (const sched::ScheduleResult& r : first) {
    const sched::SchedMetrics& m = r.metrics;
    spans += static_cast<double>(r.spans.size());
    preemptions += m.preemptions;
    resizes += m.resizes;
    overhead += m.overhead_node_s;
    busy += m.busy_node_s;
    slowdown += m.slowdown_p95 / kTraces;
    wait += m.wait_p95_s / kTraces;
    util += m.utilization / kTraces;
  }
  rec.counter("sched.spans", spans);
  rec.counter("sched.preemptions", preemptions);
  rec.counter("sched.resizes", resizes);
  rec.counter("sched.overhead_node_s", overhead);
  rec.counter("sched.busy_node_s", busy);
  rec.sim("sim.sched_slowdown_p95", slowdown);
  rec.sim("sim.sched_wait_p95_s", wait);
  rec.sim("sim.sched_utilization", util);
}

}  // namespace perfbench
