// swcaffe_serve: inference serving simulator — dynamic batching and SLO
// admission control over the cost model.
//
// Run with --help for the flags. An open-loop arrival stream (R req/s for S
// simulated seconds) feeds one server that coalesces requests into batches
// of up to --max-batch, holding the oldest request at most --max-delay ms;
// requests whose conservative completion bound misses the --slo deadline
// are rejected at arrival.
// Forward passes are priced by the calibrated SW26010 cost model; --tune
// selects swtune plans per batch size (persisted via --plan-cache, shared
// with swcaffe_time/swcaffe_tune). --trace writes a Chrome trace with the
// server's forward spans, per-request queue intervals and batch-formation
// intervals; --json writes the headline numbers as a bench_json object.
// Everything runs on simulated time: same flags + seed => identical output.
#include <cstdio>
#include <iostream>
#include <string>

#include "../bench/bench_json.h"
#include "base/cli.h"
#include "base/table.h"
#include "base/units.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"

using namespace swcaffe;
namespace cli = swcaffe::base::cli;
using base::TablePrinter;
using base::fmt;

namespace {

int serve_main(int argc, char** argv) {
  // Flags land in the option structs, whose defaults are the CLI's.
  serve::ArrivalSpec aspec;
  serve::EngineOptions eng_opts;
  std::string net = "alexnet";
  double max_delay_ms = 2.0;
  double slo_ms = 50.0;
  bool no_admission = false;
  std::string trace_path;
  std::string json_path;
  cli::Parser(
      "usage: swcaffe_serve [flags]\n"
      "\n"
      "Inference serving simulator: dynamic batching and SLO admission of an\n"
      "open-loop request stream. The verdict (exit 1): an admitted request\n"
      "missed the SLO, or the plan cache could not be saved.\n",
      {cli::flag("--net", &net, "M", "zoo name (alexnet, vgg16, ...)"),
       cli::flag("--rate", &aspec.rate, 0.0, 1e5, "requests per s", true),
       cli::flag("--duration", &aspec.duration_s, 0.0, 3600.0,
                 "arrival window, s", true),
       cli::choice("--arrival", &aspec.kind, serve::parse_arrival_kind,
                   "poisson|bursty", "arrival model (default poisson)"),
       cli::flag("--seed", &aspec.seed, "arrival seed"),
       cli::flag("--max-batch", &eng_opts.max_batch, 1, 256, "largest batch"),
       cli::flag("--max-delay", &max_delay_ms, 0.0, 1e6, "batching delay, ms"),
       cli::flag("--slo", &slo_ms, 0.0, 1e6, "admission deadline, ms", true),
       cli::toggle("--no-admission", &no_admission, "admit every request"),
       cli::toggle("--tune", &eng_opts.tune, "swtune plans per batch size"),
       cli::flag("--plan-cache", &eng_opts.plan_cache, "FILE",
                 "persist tuned plans"),
       cli::flag("--trace", &trace_path, "FILE", "write a Chrome trace"),
       cli::flag("--json", &json_path, "PATH", "write headline numbers")})
      .parse(argc, argv);
  serve::ModelFn model = core::zoo_inference(net);
  if (!model) throw cli::UsageError("unknown net: " + net);
  bench::JsonBench json("swcaffe_serve", json_path);
  trace::Tracer tracer;
  const hw::CostModel cost;

  const bool admission = !no_admission;
  eng_opts.tracer = trace_path.empty() ? nullptr : &tracer;
  eng_opts.trace_track = 3;  // serving uses tracks 0..2
  // Inference geometry: full ImageNet shapes, no loss layer. Pricing is
  // pure shape inference, so paper-scale resolutions cost nothing here.
  serve::InferenceEngine engine(cost, net, std::move(model), eng_opts);

  std::printf("=== %s forward pricing (batch table) ===\n", net.c_str());
  {
    TablePrinter t({"batch", "forward", "per-request", "img/s"});
    for (int b = 1; b <= eng_opts.max_batch; ++b) {
      const double f = engine.batch_time(b);
      t.add_row({std::to_string(b), base::format_seconds(f),
                 base::format_seconds(f / b), fmt(b / f, 1)});
    }
    t.print(std::cout);
    if (eng_opts.tune) {
      const serve::EngineStats& s = engine.stats();
      std::printf("tuned %d conv searches (%d cache hits, %d plans "
                  "verified)\n",
                  s.layers_tuned, s.cache_hits, s.plans_verified);
    }
  }

  const std::vector<double> arrivals = serve::generate_arrivals(aspec);

  serve::ServeOptions sopts;
  sopts.batcher.max_batch = eng_opts.max_batch;
  sopts.batcher.max_delay_s = max_delay_ms * 1e-3;
  sopts.admission.enabled = admission;
  sopts.admission.slo_s = slo_ms * 1e-3;
  sopts.tracer = trace_path.empty() ? nullptr : &tracer;
  const serve::ServeResult res =
      serve::simulate_serving(engine, arrivals, sopts);

  std::printf("\n=== serving %s: %s arrivals at %.1f req/s for %.2fs ===\n",
              net.c_str(), serve::arrival_kind_name(aspec.kind), aspec.rate,
              aspec.duration_s);
  {
    TablePrinter t({"metric", "value"});
    t.add_row({"offered", std::to_string(res.offered)});
    t.add_row({"admitted", std::to_string(res.admitted)});
    t.add_row({"rejected", std::to_string(res.rejected) + " (" +
                               fmt(100.0 * res.rejection_rate, 1) + "%)"});
    t.add_row({"batches", std::to_string(res.batches.size())});
    t.add_row({"mean batch size", fmt(res.mean_batch_size, 2)});
    t.add_row({"throughput", fmt(res.throughput_rps, 1) + " req/s"});
    t.add_row({"utilization", fmt(100.0 * res.utilization, 1) + "%"});
    t.add_row({"latency p50", base::format_seconds(res.latency.p50_s)});
    t.add_row({"latency p95", base::format_seconds(res.latency.p95_s)});
    t.add_row({"latency p99", base::format_seconds(res.latency.p99_s)});
    t.add_row({"latency max", base::format_seconds(res.latency.max_s)});
    t.add_row({"SLO", admission ? base::format_seconds(sopts.admission.slo_s)
                                : std::string("off")});
    t.print(std::cout);
  }
  if (admission && res.latency.count > 0) {
    // The admission bound is conservative: an admitted request can never
    // miss the deadline. Worth asserting on every CLI run, not just tests.
    if (res.latency.max_s > sopts.admission.slo_s) {
      std::fprintf(stderr, "FAIL: admitted max latency %.6fs exceeds SLO\n",
                   res.latency.max_s);
      return cli::kExitVerdict;
    }
  }

  json.metric("offered", res.offered);
  json.metric("admitted", res.admitted);
  json.metric("rejection_rate", res.rejection_rate);
  json.metric("throughput_rps", res.throughput_rps);
  json.metric("utilization", res.utilization);
  json.metric("mean_batch_size", res.mean_batch_size);
  json.metric("latency_p50_s", res.latency.p50_s);
  json.metric("latency_p95_s", res.latency.p95_s);
  json.metric("latency_p99_s", res.latency.p99_s);

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  if (eng_opts.tune && !eng_opts.plan_cache.empty()) {
    std::string error;
    if (!engine.save_cache(&error)) {
      std::fprintf(stderr, "plan-cache save failed: %s\n", error.c_str());
      return cli::kExitVerdict;
    }
    std::printf("saved plan cache to %s\n", eng_opts.plan_cache.c_str());
  }
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return cli::run(argc, argv, serve_main); }
