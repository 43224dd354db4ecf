// swcaffe_check: static plan linter for SW26010 kernel plans (swcheck) and
// whole-timeline schedules (swsched).
//
// Per-plan mode walks every layer of a network description and verifies,
// without running a single simulated cycle, that the plans the simulator
// would execute respect the hardware contracts: per-CPE LDM budgets (incl.
// double-buffering), DMA legality and byte conservation against the cost
// model, deadlock-free RLC schedules, and the implicit-convolution
// applicability rules of Table II.
//
// Timeline mode (--timeline) lifts the same discipline to whole
// discrete-event schedules: it builds the overlapped bucketed all-reduce
// timelines (k = 1..8 buckets), a short dynamic-batching serving run per
// load multiple, the fault-replay retry ladder and the composed cross-node
// collective graph for the model, runs the five swsched passes on each and
// prints one diagnostic table. `--timeline=<file.json>` verifies exported
// graphs instead of live ones.
//
// Run with --help for flags and the exit codes.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/cli.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "check/verify.h"
#include "core/models.h"
#include "core/proto.h"
#include "fault/resilient_comm.h"
#include "hw/cost_model.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "swdnn/layer_estimate.h"
#include "topo/allreduce.h"
#include "topo/overlap.h"

using namespace swcaffe;
namespace cli = swcaffe::base::cli;

namespace {

/// The zoo net or prototxt `model`; an unreadable prototxt exits 3.
core::NetSpec load_model(const std::string& model, int batch, int classes,
                         int image) {
  const std::optional<core::NetSpec> zoo =
      core::zoo_model(model, batch, classes, image);
  return zoo ? *zoo : cli::read_input(model, core::load_net_prototxt);
}

void print_codes() {
  using check::Code;
  static const Code kAll[] = {
      Code::kLdmOverflow,      Code::kLdmDoubleBuffer, Code::kDmaEmptyRun,
      Code::kDmaMisaligned,    Code::kDmaOverlap,      Code::kDmaBytesMismatch,
      Code::kDmaShortRun,      Code::kRlcDeadlock,     Code::kRlcIllegalPair,
      Code::kRlcUnmatched,     Code::kImplicitUnsupported,
      Code::kImplicitDegraded, Code::kPlanInconsistent, Code::kGeomInvalid,
      Code::kRetryBufferOverflow, Code::kRetryTimeout,
      Code::kBucketOrder,      Code::kBucketResendOverflow,
      Code::kTimelineOverlap,  Code::kTimelineRace,    Code::kTimelineBytes,
      Code::kTimelineCausality, Code::kTimelineDeadline, Code::kTimelineCycle,
      Code::kTimelineGang,
  };
  static const char* kDesc[] = {
      "per-CPE working set exceeds the 64 KB LDM",
      "plan fits single-buffered only; DMA cannot overlap compute",
      "zero-length DMA run or zero-byte transfer planned",
      "DMA run/stride not a multiple of the element size",
      "DMA stride shorter than the run; transfers overlap",
      "plan bytes disagree with what the cost model charges",
      "DMA runs below the 256 B bandwidth knee (pedantic only)",
      "cycle in the RLC send/receive dependency graph",
      "P2P between CPEs sharing neither row nor column",
      "receive without a matching send, or message never drained",
      "implicit conv outside its support predicate (Table II dash)",
      "implicit conv below the 64-channel efficiency knee",
      "auto-tuner choice contradicts the support predicate",
      "invalid geometry (empty output, indivisible groups, ...)",
      "resilient-send resend buffer cannot hold the round / exceeds LDM",
      "retry ladder cannot finish before the escalation timeout",
      "all-reduce buckets do not tile the layers in order / lose bytes",
      "a bucket's buffered round exceeds the resend buffer / LDM",
      "two intervals double-book one exclusive timeline resource",
      "conflicting state accesses with no happens-before path",
      "timeline events lose or invent cost-ledger bytes",
      "a consumer starts before its producer finishes",
      "proven completion exceeds the SLO / escalation deadline",
      "happens-before cycle: the schedule deadlocks",
      "a gang's events do not start/stop together (co-scheduling broken)",
  };
  std::printf("%-22s %s\n", "code", "meaning");
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    std::printf("%-22s %s\n", check::code_name(kAll[i]), kDesc[i]);
  }
}

/// Builds the live swsched graphs of one model: overlapped all-reduce at
/// k = 1..8 buckets, a short serving run per load multiple (zoo models
/// only), the fault-replay retry ladder, and the composed cross-node
/// collective of the bucketed schedule.
std::vector<check::TimelineGraph> build_live_timelines(
    const hw::CostModel& cost, const std::string& model,
    const core::NetSpec& spec, int batch, int nodes) {
  std::vector<check::TimelineGraph> graphs;
  const std::vector<core::LayerDesc> descs = core::describe_net_spec(spec);
  const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, descs);
  std::vector<std::int64_t> layer_bytes;
  std::int64_t param_bytes = 0;
  for (const auto& d : descs) {
    layer_bytes.push_back(d.param_bytes());
    param_bytes += d.param_bytes();
  }
  const std::string label = model + " batch " + std::to_string(batch);

  topo::Topology topo;
  topo.num_nodes = nodes;
  const topo::NetParams net;
  const auto bucket_cost = [&](std::int64_t bytes) {
    return topo::cost_rhd(bytes, topo, net, topo::Placement::kAdjacent);
  };

  // Overlapped bucketed all-reduce, serial (k=1) through k=8.
  for (int k = 1; k <= 8; ++k) {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, k);
    const topo::OverlapTimeline overlap =
        topo::schedule_overlap(buckets, tl.bwd_s, tl.total_s, bucket_cost);
    graphs.push_back(check::timeline_from_overlap(
        label + " overlap k=" + std::to_string(k), tl.bwd_s, tl.total_s,
        overlap, param_bytes));
  }

  // The composed cross-node collective: every bucket's all-reduce schedule
  // run back to back on the cluster (the global FIFO/cycle check that no
  // per-plan rule sees).
  {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, 4);
    std::vector<check::CommSchedule> phases;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      phases.push_back(check::rhd_allreduce_schedule(nodes));
    }
    graphs.push_back(
        check::timeline_from_comm(label + " rhd x" +
                                      std::to_string(buckets.size()) +
                                      " buckets @" + std::to_string(nodes) +
                                      " nodes",
                                  phases));
  }

  // Fault replay: the worst-case retry ladder of the resilient send path at
  // its default policy, two consecutive rounds.
  {
    const fault::RetryPolicy policy;
    check::RetryPlan plan;
    plan.name = label + " ft-resend";
    plan.round_bytes =
        std::min(param_bytes, static_cast<std::int64_t>(net.eager_limit));
    plan.resend_buffer_bytes = policy.resend_buffer_bytes;
    plan.max_attempts = policy.max_attempts;
    plan.backoff_base_s = policy.backoff_base_s;
    plan.round_time_s =
        net.alpha + static_cast<double>(plan.round_bytes) / net.link_bw;
    plan.timeout_s = policy.timeout_s;
    graphs.push_back(check::timeline_from_retry(plan, /*rounds=*/2));
  }

  // Serving under dynamic batching at 0.5x .. 8x the single-request service
  // rate (zoo models only — a prototxt has no inference factory). The short
  // Poisson runs exercise admission, queueing and batch coalescing; their
  // timelines re-derive the SLO admission bound from the records.
  if (serve::ModelFn fn = core::zoo_inference(model)) {
    serve::EngineOptions eopts;
    eopts.max_batch = 8;
    serve::InferenceEngine engine(cost, model, std::move(fn), eopts);
    const double f1 = engine.batch_time(1);
    for (const double load : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      serve::ArrivalSpec aspec;
      aspec.rate = load / f1;
      aspec.duration_s = 60.0 * f1;
      aspec.seed = 7;
      serve::ServeOptions sopts;
      sopts.batcher.max_batch = 8;
      sopts.batcher.max_delay_s = 0.5 * f1;
      sopts.admission.enabled = true;
      sopts.admission.slo_s = 20.0 * f1;
      const serve::ServeResult result = serve::simulate_serving(
          engine, serve::generate_arrivals(aspec), sopts);
      check::ServingContract contract;
      contract.slo_s = sopts.admission.slo_s;
      contract.max_delay_s = sopts.batcher.max_delay_s;
      contract.max_batch = sopts.batcher.max_batch;
      contract.max_batch_forward_s = engine.batch_time(8);
      contract.admission = true;
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), " serve %.1fx", load);
      graphs.push_back(check::timeline_from_serving(
          model + suffix, result.requests, result.batches, contract));
    }
  }
  return graphs;
}

/// Builds the live cluster-schedule timelines: a burst of model-zoo jobs
/// gang-scheduled onto an 8-node partition under each policy, with
/// preemption and elastic resizing in play. Every node is an exclusive
/// resource and every dispatch a gang — double-booking, broken
/// co-scheduling and lost iterations all surface as timeline errors.
std::vector<check::TimelineGraph> build_schedule_timelines(
    const hw::CostModel& cost) {
  sched::WorkloadSpec wspec;
  wspec.arrivals.kind = serve::ArrivalKind::kTrace;
  wspec.arrivals.trace = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
  wspec.seed = 11;
  wspec.widths = {2, 4};
  wspec.min_iters = 5;
  wspec.max_iters = 20;
  const std::vector<sched::JobSpec> jobs = sched::generate_workload(wspec);
  std::vector<check::TimelineGraph> graphs;
  for (const sched::Policy policy :
       {sched::Policy::kFifo, sched::Policy::kPriority,
        sched::Policy::kFairShare}) {
    sched::SchedOptions sopts;
    sopts.cluster_nodes = 8;
    sopts.supernode_size = 4;
    sopts.policy = policy;
    sopts.quantum_iters = 5;
    const sched::ScheduleResult result =
        sched::simulate_schedule(cost, jobs, sopts);
    graphs.push_back(check::timeline_from_schedule(
        std::string("cluster ") + sched::policy_name(policy) + " schedule",
        sopts.cluster_nodes, result.spans, result.jobs));
  }
  return graphs;
}

/// Verifies each graph, prints the diagnostic table and every diagnostic
/// line (unless quiet). Returns the process exit code.
int run_timeline_mode(const std::vector<check::TimelineGraph>& graphs,
                      const check::Options& opts, bool quiet,
                      const std::string& export_path) {
  if (!export_path.empty()) {
    std::ofstream out(export_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
      return cli::kExitUsage;
    }
    out << check::timelines_to_json(graphs);
  }
  int errors = 0, warnings = 0;
  std::printf("%-36s %7s %7s %7s %9s  %s\n", "timeline", "events", "edges",
              "errors", "warnings", "status");
  for (const check::TimelineGraph& g : graphs) {
    const check::Report report = check::verify_timeline(g, opts);
    errors += report.error_count();
    warnings += report.warning_count();
    std::printf("%-36s %7zu %7zu %7d %9d  %s\n", g.name.c_str(),
                g.events.size(), g.edges.size(), report.error_count(),
                report.warning_count(),
                report.empty() ? "silent"
                               : (report.ok() ? "warnings" : "FAIL"));
    if (!quiet && !report.empty()) report.print(std::cout);
  }
  std::printf("total: %d error(s), %d warning(s) across %zu timeline(s)\n",
              errors, warnings, graphs.size());
  return errors + warnings > 0 ? cli::kExitVerdict : cli::kExitOk;
}

int check_main(int argc, char** argv) {
  std::string model = "alexnet";
  int batch = 256;
  int classes = 1000;
  int image = 227;
  int nodes = 0;
  bool paper = false;
  bool pedantic = false;
  bool quiet = false;
  bool list_codes = false;
  bool timeline = false;
  std::string timeline_file;
  std::string export_path;
  cli::Parser parser(
      "usage: swcaffe_check [flags] [model]   # lint one model's plans\n"
      "       swcaffe_check --paper           # all paper-scale configs\n"
      "       swcaffe_check --timeline [...]  # build + verify live schedules\n"
      "       swcaffe_check --timeline=FILE   # verify exported graphs\n"
      "\n"
      "swcheck plan and swsched timeline verifier for a zoo model (alexnet,\n"
      "alexnet-orig, vgg16, vgg19, resnet50, googlenet) or a prototxt. The\n"
      "verdict (exit 1): plan mode fails on any error, timeline mode on any\n"
      "error or warning.\n",
      {cli::flag("--model", &model, "M", "zoo name or net prototxt"),
       cli::flag("--batch", &batch, 1, 1024, "batch size"),
       cli::flag("--classes", &classes, 1, 100000, "classifier width"),
       cli::flag("--image", &image, 1, 1024, "input side in pixels"),
       cli::flag("--nodes", &nodes, 0, 2048,
                 "also lint rhd/ring all-reduce on N nodes (0: off; 16 in "
                 "timeline mode)"),
       cli::toggle("--paper", &paper, "check every paper configuration"),
       cli::toggle("--pedantic", &pedantic, "also report pedantic codes"),
       cli::toggle("--quiet", &quiet, "print summaries only"),
       cli::toggle("--list-codes", &list_codes, "print the code table"),
       cli::optional("--timeline", &timeline, &timeline_file, "FILE",
                     "verify live schedules, or exported FILE"),
       cli::flag("--export-timeline", &export_path, "FILE",
                 "also write the timeline graphs as JSON")},
      1);
  const std::vector<std::string> positional = parser.parse(argc, argv);
  if (!positional.empty()) model = positional[0];
  if (list_codes) {
    print_codes();
    return cli::kExitOk;
  }

  check::Options opts;
  opts.pedantic = pedantic;
  const hw::CostModel cost;

  // --- Timeline mode: exported graphs from a JSON file ----------------------
  if (timeline && !timeline_file.empty()) {
    std::ifstream in(timeline_file);
    if (!in) throw cli::InputError("cannot read " + timeline_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<check::TimelineGraph> graphs;
    std::string error;
    if (!check::timelines_from_json(buf.str(), &graphs, &error)) {
      throw cli::InputError(timeline_file + ": " + error);
    }
    return run_timeline_mode(graphs, opts, quiet, export_path);
  }

  // --- Timeline mode: live schedules of the configured model(s) -------------
  if (timeline) {
    const int eff_nodes = nodes > 0 ? nodes : 16;
    std::vector<std::string> models;
    if (paper) {
      models = {"alexnet", "vgg16", "resnet50"};
    } else {
      models.push_back(model);
    }
    std::vector<check::TimelineGraph> graphs;
    for (const std::string& m : models) {
      const std::vector<check::TimelineGraph> g = build_live_timelines(
          cost, m, load_model(m, batch, classes, image), batch, eff_nodes);
      graphs.insert(graphs.end(), g.begin(), g.end());
    }
    {
      const std::vector<check::TimelineGraph> g =
          build_schedule_timelines(cost);
      graphs.insert(graphs.end(), g.begin(), g.end());
    }
    return run_timeline_mode(graphs, opts, quiet, export_path);
  }

  // --- Per-plan mode ---------------------------------------------------------
  std::vector<core::NamedNet> configs;
  if (paper) {
    configs = core::paper_configs();
  } else {
    const core::NetSpec spec = load_model(model, batch, classes, image);
    configs.push_back({spec.name + " batch " + std::to_string(batch) + " @" +
                           std::to_string(image),
                       core::describe_net_spec(spec)});
  }

  int errors = 0, warnings = 0;
  for (const core::NamedNet& config : configs) {
    check::Report report = check::verify_net(cost, config.descs, opts);
    if (nodes > 0) {
      report.merge(check::verify_allreduce("rhd", nodes, opts));
      report.merge(check::verify_allreduce("ring", nodes, opts));
    }
    errors += report.error_count();
    warnings += report.warning_count();
    if (!quiet && !report.empty()) report.print(std::cout);
    std::printf("%-28s %zu layer(s): %s\n", config.label.c_str(),
                config.descs.size(), report.summary().c_str());
  }
  if (configs.size() > 1) {
    std::printf("total: %d error(s), %d warning(s)\n", errors, warnings);
  }
  return errors > 0 ? cli::kExitVerdict : cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(argc, argv, check_main); }
