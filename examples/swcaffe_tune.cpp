// swcaffe_tune: the swtune driver — runs the cost-model-guided plan search
// over a network (or the paper's evaluated configurations) and prints, per
// convolution, the search-space size, the chosen plan for each pass and the
// tuned-vs-default simulated time. The search itself lives in src/tune/;
// this binary is presentation plus the CI regression gate.
//
// Run with --help for the flags. --candidates prints every plan the search
// priced (and how many the check:: rules rejected unpriced). --json writes
// per-layer and per-net default/tuned seconds as a bench_json object
// (BENCH_tune.json in CI). --trace records the tuner's own activity — one
// "tune.search" span per cold search, one "tune.cache_hit" instant per warm
// lookup — as a Chrome trace. The verdict (exit 1): a tuned plan is slower
// than the hand-written default under the model.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "base/cli.h"
#include "base/table.h"
#include "core/models.h"
#include "core/proto.h"
#include "hw/cost_model.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "tune/tuner.h"

using namespace swcaffe;
namespace cli = swcaffe::base::cli;

namespace {

/// "impl cb=32 ob=32" or "exp 256x512x256 db c1" — one table cell.
std::string plan_cell(const tune::DirectionChoice& d) {
  char buf[64];
  if (d.implicit) {
    std::snprintf(buf, sizeof(buf), "impl cb=%d ob=%d", d.channel_block_in,
                  d.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf), "exp %dx%dx%d %s c%d", d.blocking.block_m,
                  d.blocking.block_n, d.blocking.block_k,
                  d.blocking.double_buffered ? "db" : "sb",
                  d.blocking.bcast_chunk);
  }
  return buf;
}

std::string candidate_cell(const tune::Candidate& c) {
  char buf[64];
  if (c.implicit) {
    std::snprintf(buf, sizeof(buf), "impl cb=%d ob=%d", c.channel_block_in,
                  c.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf), "exp %dx%dx%d %s c%d", c.blocking.block_m,
                  c.blocking.block_n, c.blocking.block_k,
                  c.blocking.double_buffered ? "db" : "sb",
                  c.blocking.bcast_chunk);
  }
  return buf;
}

const char* direction_name(dnn::ConvDirection dir) {
  switch (dir) {
    case dnn::ConvDirection::kForward:
      return "fwd";
    case dnn::ConvDirection::kBackwardWeight:
      return "wgrad";
    case dnn::ConvDirection::kBackwardInput:
      return "igrad";
  }
  return "?";
}

int tune_main(int argc, char** argv) {
  std::string model = "alexnet";
  int batch = 256;
  int classes = 1000;
  int image = 227;
  int nodes = 1;
  bool paper = false;
  bool quiet = false;
  bool show_candidates = false;
  std::string plan_cache;
  std::string trace_path;
  std::string json_path;
  cli::Parser parser(
      "usage: swcaffe_tune [flags] [model]\n"
      "       swcaffe_tune --paper     # all paper-scale AlexNet/VGG configs\n"
      "\n"
      "swtune plan search per convolution of a zoo model (alexnet,\n"
      "alexnet-orig, vgg16, vgg19, resnet50, googlenet) or a prototxt.\n"
      "The verdict (exit 1): a tuned plan is slower than the default.\n",
      {cli::flag("--model", &model, "M", "zoo name or net prototxt"),
       cli::flag("--batch", &batch, 1, 1024, "batch size"),
       cli::flag("--classes", &classes, 1, 100000, "classifier width"),
       cli::flag("--image", &image, 1, 1024, "input side in pixels"),
       cli::flag("--nodes", &nodes, 1, cli::kMaxNodes, "cluster size"),
       cli::flag("--plan-cache", &plan_cache, "FILE", "persist tuned plans"),
       cli::toggle("--candidates", &show_candidates, "print every plan"),
       cli::flag("--json", &json_path, "PATH", "write per-layer seconds"),
       cli::flag("--trace", &trace_path, "FILE", "trace the tuner"),
       cli::toggle("--quiet", &quiet, "print summaries only"),
       cli::toggle("--paper", &paper, "tune every paper configuration")},
      1);
  const std::vector<std::string> positional = parser.parse(argc, argv);
  if (!positional.empty()) model = positional[0];

  bench::JsonBench bench("swcaffe_tune", json_path);

  std::vector<core::NamedNet> configs;
  if (paper) {
    configs = core::paper_configs();
  } else {
    const std::optional<core::NetSpec> zoo =
        core::zoo_model(model, batch, classes, image);
    const core::NetSpec spec =
        zoo ? *zoo : cli::read_input(model, core::load_net_prototxt);
    configs.push_back({spec.name + " batch " + std::to_string(batch) + " @" +
                           std::to_string(image),
                       core::describe_net_spec(spec)});
  }

  const hw::CostModel cost;
  trace::Tracer tracer;
  tracer.set_track_name(0, "mpe-tuner");

  int regressions = 0;
  for (const core::NamedNet& config : configs) {
    tune::TuneOptions topts;
    topts.nodes = nodes;
    topts.cache_path = plan_cache;
    topts.keep_candidates = show_candidates;
    if (!trace_path.empty()) topts.tracer = &tracer;
    tune::Tuner tuner(cost, topts);
    const tune::NetPlan plan = tuner.tune_net(config.descs);
    std::string cache_error;
    if (!tuner.save_cache(&cache_error)) {
      std::fprintf(stderr, "swtune: %s\n", cache_error.c_str());
    }

    const std::string key = bench::metric_key(config.label);
    base::TablePrinter t({"layer", "space", "default (s)", "tuned (s)", "gain",
                          "fwd plan", "wgrad plan", "igrad plan"});
    // Tuned layers print in network order, not map order.
    for (const auto& d : config.descs) {
      auto it = plan.convs.find(d.name);
      if (it == plan.convs.end()) continue;
      const tune::TunedConvPlan& p = it->second;
      const double def = p.default_total();
      const double tuned = p.tuned_total();
      if (tuned > def) {
        ++regressions;
        std::fprintf(stderr, "REGRESSION: %s %s tuned %.6fs > default %.6fs\n",
                     config.label.c_str(), p.layer.c_str(), tuned, def);
      }
      char space[32], gain[32];
      std::snprintf(space, sizeof(space), "%d", p.space_size);
      std::snprintf(gain, sizeof(gain), "%.1f%%",
                    def > 0 ? 100.0 * (def - tuned) / def : 0.0);
      t.add_row({p.layer + (p.from_cache ? " (cached)" : ""), space,
                 base::fmt(def, 5), base::fmt(tuned, 5), gain,
                 plan_cell(p.forward), plan_cell(p.backward_weight),
                 p.first_conv ? "-" : plan_cell(p.backward_input)});
      bench.metric(key + "_" + bench::metric_key(p.layer) + "_default_s", def);
      bench.metric(key + "_" + bench::metric_key(p.layer) + "_tuned_s", tuned);

      if (show_candidates && !quiet) {
        std::printf("%s candidates:\n", p.layer.c_str());
        for (const auto& c : p.candidates) {
          if (c.legal) {
            std::printf("  %-6s %-24s %.6f s\n", direction_name(c.direction),
                        candidate_cell(c).c_str(), c.seconds);
          } else {
            std::printf("  %-6s %-24s rejected by check::\n",
                        direction_name(c.direction), candidate_cell(c).c_str());
          }
        }
      }
    }
    if (!quiet) t.print(std::cout);
    const double net_def = plan.default_total();
    const double net_tuned = plan.tuned_total();
    std::printf("%-28s %zu conv layer(s): default %.4fs tuned %.4fs "
                "(%.2f%% faster), %lld candidates priced, %lld rejected, "
                "%d cache hit(s)\n",
                config.label.c_str(), plan.convs.size(), net_def, net_tuned,
                net_def > 0 ? 100.0 * (net_def - net_tuned) / net_def : 0.0,
                tuner.stats().evaluated, tuner.stats().rejected,
                tuner.stats().cache_hits);
    bench.metric(key + "_net_default_s", net_def);
    bench.metric(key + "_net_tuned_s", net_tuned);
    bench.metric(key + "_speedup", net_tuned > 0 ? net_def / net_tuned : 1.0);
  }

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
  }
  if (regressions > 0) {
    std::fprintf(stderr, "%d tuned plan(s) regressed vs the default\n",
                 regressions);
    return cli::kExitVerdict;
  }
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(argc, argv, tune_main); }
