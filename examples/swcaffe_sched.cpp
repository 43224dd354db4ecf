// swcaffe_sched: multi-tenant cluster scheduler simulator — gang
// scheduling, preemption and elastic training over the cost model.
//
// Run with --help for the flags and the exit codes. An open-loop stream of
// heterogeneous training jobs (model zoo x batch x requested gang width,
// R jobs/s for S simulated seconds) is admitted onto a simulated TaihuLight
// partition of N nodes under the chosen policy.
// Preempted jobs checkpoint and later resume by crash-rewind-replay;
// elastic jobs shrink/grow between quanta. Everything runs on simulated
// time: same flags + seed => bit-identical schedule and output.
//
// --verify builds the whole-cluster timeline (one exclusive resource per
// node, gang tags per dispatch) and judges it with the swsched analyzer —
// the same graphs `swcaffe_check --timeline` audits; --export-timeline
// writes them as JSON for `swcaffe_check --timeline=<file>`.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "base/cli.h"
#include "base/table.h"
#include "base/units.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "hw/cost_model.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"

using namespace swcaffe;
namespace cli = swcaffe::base::cli;
using base::TablePrinter;
using base::fmt;

namespace {

int sched_main(int argc, char** argv) {
  // Flags land in the option structs; their defaults are the CLI's except
  // for the arrival window.
  sched::WorkloadSpec wspec;
  sched::SchedOptions sopts;
  serve::ArrivalSpec& arrivals = wspec.arrivals;
  arrivals.rate = 1.0;
  arrivals.duration_s = 60.0;
  bool no_elastic = false;
  bool verify = false;
  std::string export_path;
  std::string json_path;
  cli::Parser(
      "usage: swcaffe_sched [flags]\n"
      "\n"
      "Multi-tenant cluster scheduler simulator: gang scheduling, preemption\n"
      "and elastic training of an open-loop job stream. The verdict (exit\n"
      "1): --verify found diagnostics in the schedule timeline.\n",
      {cli::choice("--policy", &sopts.policy, sched::parse_policy,
                   "fifo|priority|fair", "scheduling policy (default fifo)"),
       cli::flag("--nodes", &sopts.cluster_nodes, 1, cli::kMaxNodes,
                 "cluster nodes"),
       cli::flag("--supernode", &sopts.supernode_size, 1, 256,
                 "nodes per supernode"),
       cli::choice("--arrival", &arrivals.kind, serve::parse_arrival_kind,
                   "poisson|bursty", "arrival model (default poisson)"),
       cli::flag("--rate", &arrivals.rate, 0.0, 1000.0, "jobs per s", true),
       cli::flag("--duration", &arrivals.duration_s, 0.0, 1e6,
                 "arrival window, s", true),
       cli::flag("--seed", &wspec.seed, "workload seed"),
       cli::flag("--tenants", &wspec.tenants, 1, 64, "tenants"),
       cli::flag("--quantum", &sopts.quantum_iters, 1, 1000000,
                 "scheduling quantum, iterations"),
       cli::toggle("--no-elastic", &no_elastic, "disable elastic resizing"),
       cli::toggle("--verify", &verify, "verify the schedule timeline"),
       cli::flag("--export-timeline", &export_path, "FILE",
                 "write the schedule timeline as JSON"),
       cli::flag("--json", &json_path, "PATH", "write headline numbers")})
      .parse(argc, argv);
  arrivals.seed = wspec.seed;
  wspec.elastic = sopts.elastic = !no_elastic;
  bench::JsonBench json("swcaffe_sched", json_path);
  const hw::CostModel cost;

  const std::vector<sched::JobSpec> jobs = sched::generate_workload(wspec);
  if (jobs.empty()) {
    throw cli::UsageError("no jobs arrived (rate " + fmt(arrivals.rate, 3) +
                          " over " + fmt(arrivals.duration_s, 1) + "s)");
  }
  const int nodes = sopts.cluster_nodes;
  const sched::ScheduleResult res =
      sched::simulate_schedule(cost, jobs, sopts);
  const sched::SchedMetrics& m = res.metrics;

  std::printf("=== %s schedule: %zu jobs on %d nodes (%s arrivals, %.2f "
              "jobs/s) ===\n",
              sched::policy_name(sopts.policy), jobs.size(), nodes,
              serve::arrival_kind_name(arrivals.kind), arrivals.rate);
  {
    TablePrinter t(
        {"job", "tenant", "width", "iters", "wait", "makespan", "pre", "rsz"});
    for (const sched::JobRecord& r : res.jobs) {
      t.add_row({r.name, std::to_string(r.tenant),
                 std::to_string(r.final_width), std::to_string(r.iters),
                 base::format_seconds(r.queue_wait_s()),
                 base::format_seconds(r.makespan_s()),
                 std::to_string(r.preemptions), std::to_string(r.resizes)});
    }
    t.print(std::cout);
  }
  std::printf("\n=== cluster metrics ===\n");
  {
    TablePrinter t({"metric", "value"});
    t.add_row({"jobs finished", std::to_string(m.finished) + "/" +
                                    std::to_string(m.jobs)});
    t.add_row({"horizon", base::format_seconds(m.horizon_s)});
    t.add_row({"utilization", fmt(100.0 * m.utilization, 1) + "%"});
    t.add_row({"run node-s", fmt(m.run_node_s, 1)});
    t.add_row({"overhead node-s", fmt(m.overhead_node_s, 3)});
    t.add_row({"preemptions", std::to_string(m.preemptions)});
    t.add_row({"resizes", std::to_string(m.resizes)});
    t.add_row({"queue wait p50", base::format_seconds(m.wait_p50_s)});
    t.add_row({"queue wait p95", base::format_seconds(m.wait_p95_s)});
    t.add_row({"makespan p50", base::format_seconds(m.makespan_p50_s)});
    t.add_row({"makespan p95", base::format_seconds(m.makespan_p95_s)});
    t.print(std::cout);
  }

  json.metric("jobs", m.jobs);
  json.metric("finished", m.finished);
  json.metric("horizon_s", m.horizon_s);
  json.metric("utilization", m.utilization);
  json.metric("busy_node_s", m.busy_node_s);
  json.metric("run_node_s", m.run_node_s);
  json.metric("overhead_node_s", m.overhead_node_s);
  json.metric("preemptions", m.preemptions);
  json.metric("resizes", m.resizes);
  json.metric("wait_mean_s", m.wait_mean_s);
  json.metric("wait_p50_s", m.wait_p50_s);
  json.metric("wait_p95_s", m.wait_p95_s);
  json.metric("makespan_p50_s", m.makespan_p50_s);
  json.metric("makespan_p95_s", m.makespan_p95_s);
  json.metric("makespan_spread_s", m.makespan_spread_s);

  if (verify || !export_path.empty()) {
    const check::TimelineGraph graph = check::timeline_from_schedule(
        std::string("cluster ") + sched::policy_name(sopts.policy), nodes,
        res.spans, res.jobs);
    if (!export_path.empty()) {
      std::ofstream out(export_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
        return cli::kExitUsage;
      }
      out << check::timelines_to_json({graph});
      std::printf("wrote timeline (%zu events) to %s\n", graph.events.size(),
                  export_path.c_str());
    }
    if (verify) {
      const check::Report report = check::verify_timeline(graph);
      std::printf("\ntimeline: %zu events, %d error(s), %d warning(s)\n",
                  graph.events.size(), report.error_count(),
                  report.warning_count());
      if (!report.empty()) {
        report.print(std::cout);
        return cli::kExitVerdict;
      }
    }
  }
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(argc, argv, sched_main); }
