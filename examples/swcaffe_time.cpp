// swcaffe_time: the equivalent of `caffe time` — per-layer forward/backward
// timing for a model, reporting both the functional host wall-clock and the
// simulated SW26010 core-group time the cost model assigns to each layer.
// Run with --help for the flags; the legacy positional form
// `swcaffe_time <model> [iterations] [batch]` also works.
//
// --tune runs the swtune plan search over every convolution, switches the
// functional net onto the tuned strategies and adds tuned per-layer columns
// next to the hand-written defaults; --plan-cache persists the tuned plans
// across runs. --json writes the headline numbers (host iteration, default
// and tuned simulated iteration) as a bench_json object. --trace writes a
// Chrome-trace JSON of the simulated timeline (open in ui.perfetto.dev);
// --trace-report prints the per-layer aggregate table from the same spans.
// Zoo models run at reduced resolution functionally; the simulated column is
// computed for the shapes actually instantiated.
//
// --threads N adds a wall-clock section: R model replicas (--replicas,
// default 8) run their forward/backward serially and then on N host worker
// threads; the replica losses must match bitwise and the section reports
// the measured speedup. This is the multithreaded replica execution the
// distributed trainer uses, measured in isolation.
//
// --nodes N adds a communication section: the model's packed gradient
// message is priced across N nodes with the configured all-reduce (--algo)
// and gradient codec (--compress), reporting wire bytes and the simulated
// collective time next to the compute time.
//
// --sweep runs the swsim timing-only scalability sweep: the model's
// Fig. 10/11 curve (serial + overlapped series, 8 buckets) priced at node
// counts 4..40,960 under the configured --algo/--compress, fanned over
// --threads workers. Pure pricing — no replica tensors — so the full
// machine sweep completes in well under a second; the section reports its
// own wall clock.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "../bench/bench_json.h"
#include "base/cli.h"
#include "base/table.h"
#include "base/units.h"
#include "check/rules.h"
#include "core/models.h"
#include "core/net.h"
#include "core/proto.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "parallel/sweep.h"
#include "swdnn/layer_estimate.h"
#include "topo/hierarchical.h"
#include "trace/chrome_trace.h"
#include "trace/report.h"
#include "trace/tracer.h"
#include "tune/tuner.h"

using namespace swcaffe;
namespace cli = swcaffe::base::cli;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int time_main(int argc, char** argv) {
  std::string model = "alexnet";
  int iterations = 3;
  int batch = 2;
  std::string trace_path;
  bool trace_report = false;
  bool tune = false;
  std::string plan_cache;
  std::string json_path;
  int threads = 1;
  int replicas = 8;
  int nodes = 0;
  bool sweep = false;
  parallel::AllreduceAlgo algo = parallel::AllreduceAlgo::kRhdRoundRobin;
  topo::Compression compress = topo::Compression::kNone;

  cli::Parser parser(
      "usage: swcaffe_time [flags] [model [iterations [batch]]]\n"
      "\n"
      "Per-layer forward/backward timing, host wall clock and simulated\n"
      "SW26010, of a zoo model (alexnet, alexnet-orig, vgg16, vgg19,\n"
      "resnet50, googlenet) at reduced resolution, or of a prototxt.\n",
      {cli::flag("--model", &model, "M", "zoo name or net prototxt"),
       cli::flag("--iterations", &iterations, 1, 1000000, "timed passes"),
       cli::flag("--batch", &batch, 1, 64, "functional batch size"),
       cli::toggle("--tune", &tune, "run the swtune plan search"),
       cli::flag("--plan-cache", &plan_cache, "FILE", "tuned plans (--tune)"),
       cli::flag("--json", &json_path, "PATH", "write headline numbers"),
       cli::flag("--threads", &threads, 1, cli::kMaxThreads, "replica threads"),
       cli::flag("--replicas", &replicas, 1, 16, "replicas for --threads"),
       cli::flag("--nodes", &nodes, 0, cli::kMaxNodes, "all-reduce nodes"),
       cli::choice("--algo", &algo, parallel::allreduce_algo_from_name,
                   "rhd-round-robin|rhd-adjacent|hierarchical|ring|"
                   "param-server", "gradient all-reduce (default first)"),
       cli::choice("--compress", &compress, topo::compression_from_name,
                   "none|fp16|int8", "gradient codec (default none)"),
       cli::toggle("--sweep", &sweep, "scalability sweep to 40,960 nodes"),
       cli::flag("--trace", &trace_path, "FILE", "write a Chrome trace"),
       cli::toggle("--trace-report", &trace_report, "per-layer trace table")},
      3);
  const std::vector<std::string> positional = parser.parse(argc, argv);
  const char* const kPositional[] = {"--model", "--iterations", "--batch"};
  for (std::size_t i = 0; i < positional.size(); ++i) {
    parser.set(kPositional[i], positional[i]);
  }
  if (!plan_cache.empty() && !tune) {
    throw cli::UsageError("--plan-cache requires --tune");
  }

  bench::JsonBench bench("swcaffe_time", json_path);

  std::optional<core::NetSpec> zoo =
      core::zoo_model(model, batch, 10, core::kSmallImage);
  const core::NetSpec spec =
      zoo ? *zoo : cli::read_input(model, core::load_net_prototxt);
  core::Net net(spec, 1);
  base::Rng rng(2);
  if (net.has_blob("data")) {
    for (auto& v : net.blob("data")->data()) v = rng.gaussian(0.0f, 1.0f);
  }
  if (net.has_blob("label")) {
    for (auto& v : net.blob("label")->data()) {
      v = static_cast<float>(rng.uniform_int(0, 9));
    }
  }

  const std::vector<core::LayerDesc> descs = net.describe();

  // swtune: search (or load) the per-conv plans, then switch the functional
  // net onto the tuned strategies so the host loop runs what the simulated
  // "tuned" column prices.
  tune::NetPlan plan;
  hw::CostModel cost;
  if (tune) {
    tune::TuneOptions topts;
    topts.cache_path = plan_cache;
    tune::Tuner tuner(cost, topts);
    plan = tuner.tune_net(descs);
    std::string cache_error;
    if (!tuner.save_cache(&cache_error)) {
      std::fprintf(stderr, "swtune: %s\n", cache_error.c_str());
    }
    net.apply_conv_plans(plan.assignments());
    std::printf("swtune: %zu conv layers tuned (%d cache hits, %lld "
                "candidates priced)\n\n",
                plan.convs.size(), tuner.stats().cache_hits,
                tuner.stats().evaluated);
  }

  // Warm-up pass (plan selection, buffer allocation).
  net.forward_backward();

  const double t0 = now_s();
  for (int i = 0; i < iterations; ++i) net.forward_backward();
  const double host_iter = (now_s() - t0) / iterations;

  const bool tracing = !trace_path.empty() || trace_report;
  trace::Tracer tracer;
  tracer.set_track_name(0, "cg0");

  if (tracing) cost.set_tracer(&tracer, 0);
  hw::CostModel untraced_cost;  // default column must not move the clock
  std::vector<std::string> headers = {"layer", "type", "SW26010 fwd",
                                      "SW26010 bwd"};
  if (tune) {
    headers.push_back("tuned fwd");
    headers.push_back("tuned bwd");
  }
  base::TablePrinter t(headers);
  double sw_total = 0.0;
  double tuned_total = 0.0;
  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    dnn::ConvEstimate override_storage;
    const dnn::ConvEstimate* conv_override = nullptr;
    if (tune && d.kind == core::LayerKind::kConv) {
      auto it = plan.convs.find(d.name);
      if (it != plan.convs.end()) {
        override_storage = it->second.as_estimate();
        conv_override = &override_storage;
      }
    }
    // The traced/primary pass prices the plans that actually run.
    const auto sw = dnn::estimate_layer_sw(cost, d, first, conv_override);
    std::vector<std::string> row = {d.name, core::layer_kind_name(d.kind)};
    if (tune) {
      const auto def = dnn::estimate_layer_sw(untraced_cost, d, first);
      sw_total += def.total();
      tuned_total += sw.total();
      row.push_back(base::format_seconds(def.fwd_s));
      row.push_back(base::format_seconds(def.bwd_s));
      row.push_back(base::format_seconds(sw.fwd_s));
      row.push_back(base::format_seconds(sw.bwd_s));
    } else {
      sw_total += sw.total();
      row.push_back(base::format_seconds(sw.fwd_s));
      row.push_back(base::format_seconds(sw.bwd_s));
    }
    t.add_row(row);
  }
  t.print(std::cout);
  std::printf("\nmodel: %s  (batch %d, %d timed iterations)\n",
              spec.name.c_str(), batch, iterations);
  std::printf("host functional iteration:      %s\n",
              base::format_seconds(host_iter).c_str());
  std::printf("simulated SW26010 iteration:    %s (one core group at this "
              "batch%s)\n",
              base::format_seconds(tune ? tuned_total : sw_total).c_str(),
              tune ? ", tuned plans" : "");
  bench.metric("host_iteration_s", host_iter);
  bench.metric("sim_iteration_default_s", sw_total);
  if (tune) {
    std::printf("  hand-written default plans:   %s (tuned is %.2f%% faster)\n",
                base::format_seconds(sw_total).c_str(),
                sw_total > 0 ? 100.0 * (sw_total - tuned_total) / sw_total
                             : 0.0);
    bench.metric("sim_iteration_tuned_s", tuned_total);
    bench.metric("tune_speedup",
                 tuned_total > 0 ? sw_total / tuned_total : 1.0);
  }

  if (tracing) {
    if (trace_report) {
      std::printf("\nper-layer trace aggregate:\n");
      trace::Report::build(tracer, "layer").print(std::cout);
    }
    if (!trace_path.empty()) {
      trace::save_chrome_trace(tracer, trace_path);
      std::printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }

  // --- Multithreaded replica section (--threads) ---------------------------
  if (threads > 1) {
    core::SolverSpec solver;
    parallel::SsgdOptions so;
    so.threads = 1;
    parallel::SsgdTrainer serial(spec, replicas, solver, so, 7);
    so.threads = threads;
    parallel::SsgdTrainer threaded(spec, replicas, solver, so, 7);

    const std::size_t dpn = serial.node(0).blob("data")->count();
    const std::size_t lpn = serial.node(0).blob("label")->count();
    std::vector<float> data(dpn * replicas), labels(lpn * replicas);
    base::Rng brng(11);
    for (auto& v : data) v = brng.gaussian(0.0f, 1.0f);
    for (auto& v : labels) v = static_cast<float>(brng.uniform_int(0, 9));

    std::vector<std::vector<float>> g1(replicas), g2(replicas);
    // Warm-up (buffer allocation, pool spin-up), then timed passes.
    serial.forward_backward_packed(data, labels, g1);
    threaded.forward_backward_packed(data, labels, g2);
    double serial_s = 0.0, threaded_s = 0.0, loss1 = 0.0, loss2 = 0.0;
    for (int i = 0; i < iterations; ++i) {
      double t = now_s();
      loss1 = serial.forward_backward_packed(data, labels, g1);
      serial_s += now_s() - t;
      t = now_s();
      loss2 = threaded.forward_backward_packed(data, labels, g2);
      threaded_s += now_s() - t;
    }
    serial_s /= iterations;
    threaded_s /= iterations;
    const bool identical = loss1 == loss2 && g1 == g2;
    std::printf("\n%d replicas, forward/backward per iteration:\n", replicas);
    std::printf("  serial:            %s\n",
                base::format_seconds(serial_s).c_str());
    std::printf("  %2d host threads:   %s (%.2fx, results %s)\n", threads,
                base::format_seconds(threaded_s).c_str(),
                threaded_s > 0 ? serial_s / threaded_s : 1.0,
                identical ? "bit-identical" : "DIVERGED");
    bench.metric("replica_serial_s", serial_s);
    bench.metric("replica_threaded_s", threaded_s);
    bench.metric("thread_speedup",
                 threaded_s > 0 ? serial_s / threaded_s : 1.0);
    bench.metric("threads", static_cast<double>(threads));
    if (!identical) {
      std::fprintf(stderr,
                   "threaded replica results diverged from serial\n");
      return 1;
    }
  }

  // --- All-reduce pricing section (--nodes) --------------------------------
  if (nodes > 1) {
    const std::int64_t param_bytes = core::total_param_bytes(descs);
    topo::Topology topo;
    topo.num_nodes = nodes;
    const topo::NetParams net = topo::sunway_network();

    // swcheck gatekeeps the combination exactly as the trainer would
    // (e.g. int8 over ring/param-server is rejected). The direct
    // check_comm rules, not verify_comm: the latter additionally composes
    // the hierarchy's full three-phase timeline, which at --nodes 40960 is
    // millions of events — legality is the same either way.
    check::CommPlan cplan;
    cplan.name = "swcaffe-time-comm";
    cplan.algorithm = parallel::allreduce_algo_name(algo);
    cplan.compression = topo::compression_name(compress);
    cplan.num_nodes = nodes;
    cplan.supernode_size = topo.supernode_size;
    cplan.raw_bytes = param_bytes;
    check::Report report;
    check::check_comm(cplan, check::Options{}, cplan.name, &report);
    if (!report.ok()) {
      throw cli::UsageError("illegal --algo/--compress combination: " +
                            report.summary());
    }

    const topo::Placement placement = parallel::placement_for(algo);
    const topo::CostBreakdown comm = topo::cost_compressed(
        compress, param_bytes, net,
        [&](std::int64_t wire) -> topo::CostBreakdown {
          switch (algo) {
            case parallel::AllreduceAlgo::kRhdAdjacent:
            case parallel::AllreduceAlgo::kRhdRoundRobin:
              return topo::cost_rhd(wire, topo, net, placement);
            case parallel::AllreduceAlgo::kRing:
              return topo::cost_ring(wire, topo, net, placement);
            case parallel::AllreduceAlgo::kParamServer:
              return topo::cost_param_server(wire, topo, net, 1);
            case parallel::AllreduceAlgo::kHierarchical:
              return topo::cost_hierarchical(wire, topo, net);
          }
          return {};
        });
    std::printf("\ngradient all-reduce across %d nodes (%s, %s):\n", nodes,
                parallel::allreduce_algo_name(algo),
                topo::compression_name(compress));
    std::printf("  packed gradients:  %.2f MB (%.2f MB on the wire)\n",
                static_cast<double>(param_bytes) / 1e6,
                static_cast<double>(topo::wire_bytes(compress, param_bytes)) /
                    1e6);
    std::printf("  simulated time:    %s (%d startups)\n",
                base::format_seconds(comm.seconds).c_str(), comm.alpha_terms);
    bench.metric("allreduce_nodes", static_cast<double>(nodes));
    bench.metric("allreduce_s", comm.seconds);
    bench.metric("allreduce_wire_bytes",
                 static_cast<double>(topo::wire_bytes(compress, param_bytes)));
  }

  // --- Timing-only scalability sweep (--sweep) -----------------------------
  if (sweep) {
    parallel::SweepSeries series;
    series.label = model;
    series.descs_per_cg = descs;
    series.param_bytes = core::total_param_bytes(descs);
    series.options.algo = algo;
    series.options.compression = compress;
    series.options.buckets = 8;
    series.node_counts = {4, 16, 64, 256, 1024, 4096, 40960};
    const hw::CostModel sweep_cost;  // untraced: pricing only
    const double s0 = now_s();
    std::vector<parallel::SweepResult> results;
    try {
      results = parallel::scalability_sweep(sweep_cost, {series},
                                            std::max(threads, 1));
    } catch (const std::exception& e) {
      throw cli::UsageError(std::string("sweep rejected: ") + e.what());
    }
    const double sweep_wall = now_s() - s0;
    std::printf("\ntiming-only scalability sweep (%s, %s, %d buckets):\n",
                parallel::allreduce_algo_name(algo),
                topo::compression_name(compress), series.options.buckets);
    base::TablePrinter st({"nodes", "comm", "speedup", "overlapped",
                           "exposed comm", "overlap speedup"});
    const auto fmt_x = [](double v) {
      char b[32];
      std::snprintf(b, sizeof b, "%.1fx", v);
      return std::string(b);
    };
    for (const parallel::ScalePoint& pt : results.at(0).points) {
      st.add_row({std::to_string(pt.nodes),
                  base::format_seconds(pt.comm_s), fmt_x(pt.speedup),
                  base::format_seconds(pt.overlap_s),
                  base::format_seconds(pt.exposed_comm_s),
                  fmt_x(pt.overlap_speedup)});
    }
    st.print(std::cout);
    std::printf("swept %zu full-machine points in %s wall clock (%d "
                "threads, no replica tensors)\n",
                results.at(0).points.size(),
                base::format_seconds(sweep_wall).c_str(),
                std::max(threads, 1));
    const parallel::ScalePoint& top = results.at(0).points.back();
    bench.metric("sweep_points",
                 static_cast<double>(results.at(0).points.size()));
    bench.metric("sweep_wall_s", sweep_wall);
    bench.metric("sweep_top_nodes", static_cast<double>(top.nodes));
    bench.metric("sweep_top_overlap_s", top.overlap_s);
    bench.metric("sweep_top_speedup", top.overlap_speedup);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(argc, argv, time_main); }
