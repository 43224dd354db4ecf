// Serving latency/throughput bench: AlexNet, VGG-16 and ResNet-50 under an
// open-loop Poisson load swept from under- to over-subscription, each rate
// served twice — dynamic batching (max_batch 8, max_delay = one unbatched
// forward) vs. unbatched (max_batch 1) — at the same SLO. The JSON output is
// the throughput-vs-latency curve (p50/p95/p99, rejection rate, mean batch
// size per point).
//
// Three gates (exit 1 on violation):
//  1. Batching wins: at the overload rate, dynamic batching sustains
//     strictly higher admitted throughput than batch=1.
//  2. SLO holds: the admission bound is conservative, so no admitted
//     request may ever finish past the SLO — checked on every run.
//  3. Determinism: the whole sweep runs twice and every metric must match
//     bitwise (CI additionally diffs two full --json files byte for byte).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "../tests/fixtures.h"
#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "hw/cost_model.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

constexpr int kMaxBatch = 8;
/// Offered load as multiples of the unbatched capacity 1/f(1); the last
/// entry is the overload point the batching gate is judged at.
constexpr double kLoads[] = {0.5, 1.0, 2.0, 4.0, 8.0};

struct NetCfg {
  const char* name;
  serve::ModelFn model;
};

struct Point {
  double rate = 0.0;
  serve::ServeResult dyn;
  serve::ServeResult single;
};

std::vector<Point> sweep(const serve::InferenceEngine& engine,
                         double slo_s) {
  const double f1 = engine.batch_time(1);
  std::vector<Point> points;
  for (const double load : kLoads) {
    Point p;
    p.rate = load / f1;
    serve::ArrivalSpec aspec;
    aspec.rate = p.rate;
    // ~40 arrivals at the lightest load, ~640 at the heaviest: enough for
    // stable tail percentiles while keeping the event count trivial.
    aspec.duration_s = 80.0 * f1;
    const std::vector<double> arrivals = serve::generate_arrivals(aspec);

    serve::ServeOptions dyn;
    dyn.batcher.max_batch = kMaxBatch;
    dyn.batcher.max_delay_s = f1;  // wait at most one unbatched forward
    dyn.admission.slo_s = slo_s;
    p.dyn = serve::simulate_serving(engine, arrivals, dyn);

    serve::ServeOptions single;
    single.batcher.max_batch = 1;
    single.batcher.max_delay_s = 0.0;
    single.admission.slo_s = slo_s;
    p.single = serve::simulate_serving(engine, arrivals, single);
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_serving", bench::json_flag(argc, argv));
  const hw::CostModel cost;
  bool gate_ok = true;

  const NetCfg cfgs[] = {
      {"AlexNet", [](int b) { return fixtures::alexnet_spec(b); }},
      {"VGG-16", [](int b) { return fixtures::vgg_spec(16, b); }},
      {"ResNet-50", [](int b) { return fixtures::resnet50_spec(b); }},
  };

  for (const NetCfg& cfg : cfgs) {
    serve::EngineOptions eopts;
    eopts.max_batch = kMaxBatch;
    const serve::InferenceEngine engine(cost, cfg.name, cfg.model, eopts);
    const double f1 = engine.batch_time(1);
    const double f8 = engine.batch_time(kMaxBatch);
    // Default SLO: generous enough that an under-subscribed server admits
    // everything (3 worst-case batches + the formation wait), tight enough
    // that overload sheds load instead of queueing without bound.
    const double slo_s = 3.0 * f8 + f1;

    const std::vector<Point> points = sweep(engine, slo_s);
    const std::vector<Point> rerun = sweep(engine, slo_s);

    std::printf("\n=== %s: f(1)=%s f(%d)=%s SLO=%s ===\n", cfg.name,
                base::format_seconds(f1).c_str(), kMaxBatch,
                base::format_seconds(f8).c_str(),
                base::format_seconds(slo_s).c_str());
    TablePrinter t({"rate", "cfg", "admitted", "rejected", "tput",
                    "batch", "p50", "p99"});
    for (const Point& p : points) {
      const struct {
        const char* label;
        const serve::ServeResult& r;
      } rows[] = {{"dyn", p.dyn}, {"b=1", p.single}};
      for (const auto& row : rows) {
        t.add_row({fmt(p.rate, 1) + "/s", row.label,
                   std::to_string(row.r.admitted),
                   std::to_string(row.r.rejected),
                   fmt(row.r.throughput_rps, 1) + "/s",
                   fmt(row.r.mean_batch_size, 2),
                   base::format_seconds(row.r.latency.p50_s),
                   base::format_seconds(row.r.latency.p99_s)});
      }
    }
    t.print(std::cout);

    const std::string net_key = bench::metric_key(cfg.name);
    json.metric(net_key + "_forward_1_s", f1);
    json.metric(net_key + "_forward_8_s", f8);
    json.metric(net_key + "_slo_s", slo_s);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const std::string key =
          net_key + "_load" + bench::metric_key(fmt(kLoads[i], 1)) + "x";
      const struct {
        const char* suffix;
        const serve::ServeResult& r;
      } rows[] = {{"_dyn", p.dyn}, {"_b1", p.single}};
      for (const auto& row : rows) {
        json.metric(key + row.suffix + "_throughput_rps",
                    row.r.throughput_rps);
        json.metric(key + row.suffix + "_p50_s", row.r.latency.p50_s);
        json.metric(key + row.suffix + "_p95_s", row.r.latency.p95_s);
        json.metric(key + row.suffix + "_p99_s", row.r.latency.p99_s);
        json.metric(key + row.suffix + "_rejection_rate",
                    row.r.rejection_rate);
        json.metric(key + row.suffix + "_mean_batch", row.r.mean_batch_size);
      }

      // Gate 2: admitted requests never miss the SLO, at every load.
      for (const auto& row : rows) {
        if (row.r.latency.count > 0 && row.r.latency.max_s > slo_s) {
          std::fprintf(stderr,
                       "GATE FAILED: %s %s at %.1f req/s: admitted max "
                       "latency %.6gs exceeds SLO %.6gs\n",
                       cfg.name, row.suffix, p.rate, row.r.latency.max_s,
                       slo_s);
          gate_ok = false;
        }
      }

      // Gate 3: the sweep is a pure function of its inputs — every metric
      // of the in-process rerun must match bitwise.
      const Point& q = rerun[i];
      const struct {
        const serve::ServeResult& a;
        const serve::ServeResult& b;
      } pairs[] = {{p.dyn, q.dyn}, {p.single, q.single}};
      for (const auto& pr : pairs) {
        if (pr.a.throughput_rps != pr.b.throughput_rps ||
            pr.a.latency.p99_s != pr.b.latency.p99_s ||
            pr.a.admitted != pr.b.admitted ||
            pr.a.rejection_rate != pr.b.rejection_rate) {
          std::fprintf(stderr,
                       "GATE FAILED: %s at %.1f req/s: rerun metrics "
                       "differ (non-deterministic sweep)\n",
                       cfg.name, p.rate);
          gate_ok = false;
        }
      }
    }

    // Gate 1: at overload, dynamic batching must sustain strictly higher
    // admitted throughput than unbatched serving.
    const Point& overload = points.back();
    json.metric(net_key + "_gate_dyn_throughput_rps",
                overload.dyn.throughput_rps);
    json.metric(net_key + "_gate_b1_throughput_rps",
                overload.single.throughput_rps);
    if (!(overload.dyn.throughput_rps > overload.single.throughput_rps)) {
      std::fprintf(stderr,
                   "GATE FAILED: %s at %.1f req/s: dynamic batching "
                   "throughput %.6g req/s does not beat batch=1 %.6g "
                   "req/s\n",
                   cfg.name, overload.rate, overload.dyn.throughput_rps,
                   overload.single.throughput_rps);
      gate_ok = false;
    }
    std::printf("batching gain at %.1f req/s offered: %.2fx "
                "(%.1f vs %.1f req/s)\n",
                overload.rate,
                overload.dyn.throughput_rps / overload.single.throughput_rps,
                overload.dyn.throughput_rps, overload.single.throughput_rps);
  }

  if (!gate_ok) {
    std::fprintf(stderr, "bench_serving: GATES FAILED\n");
    return 1;
  }
  std::printf("\nall serving gates passed\n");
  return 0;
}
