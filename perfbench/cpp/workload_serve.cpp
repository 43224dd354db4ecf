// serve-ladder: one tuned AlexNet InferenceEngine (max_batch 8) serving
// open-loop arrival traces at offered loads x{0.5, 1, 2, 4} of the
// single-request rate 1/f(1), plus one bursty rung at x2 peak. Light rungs
// launch batches from deadline timers; overloaded rungs form full batches
// and reject at admission. The SLO is bench_serving's 3 f(8) + f(1).
#include <cstring>
#include <memory>
#include <vector>

#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMaxBatch = 8;
constexpr int kSetupsPerOp = 2;  ///< set-ups after each measured pass
/// Trace length in units of f(1): the x4 rung offers ~4 * 4000 requests,
/// long enough for costs that grow faster than the trace to show.
constexpr double kDurationF1 = 4000.0;
/// Bursty rung: square wave of 100 f(1) periods, peak for a quarter of
/// each, a tenth of the peak rate in between.
constexpr double kBurstPeriodF1 = 100.0;
constexpr double kBurstDuty = 0.25;
constexpr double kBurstBase = 0.1;

struct Rung {
  const char* name;
  double load;  ///< multiple of 1/f(1) (peak rate for the bursty rung)
  bool bursty;
};

constexpr Rung kRungs[] = {{"x0.5", 0.5, false},
                           {"x1", 1.0, false},
                           {"x2", 2.0, false},
                           {"x4", 4.0, false},
                           {"burst-x2", 2.0, true}};

/// Open-loop arrivals on [0, duration): Poisson at `rate`, or the bursty
/// square wave realized by thinning the peak-rate stream.
std::vector<double> make_arrivals(std::uint64_t seed, double rate,
                                  double duration, bool bursty,
                                  double period) {
  SplitMix rng(seed);
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= duration) break;
    const double keep_u = rng.uniform();
    if (bursty) {
      const double phase = t / period - static_cast<double>(
                                            static_cast<long long>(t / period));
      const double keep = phase < kBurstDuty ? 1.0 : kBurstBase;
      if (keep_u >= keep) continue;
    }
    out.push_back(t);
  }
  return out;
}

/// Bitwise summary of one rung's result; later passes must reproduce it.
struct RungSummary {
  int offered = 0, admitted = 0, rejected = 0, batches = 0;
  double p99_s = 0.0, makespan_s = 0.0, mean_batch = 0.0;
  bool operator==(const RungSummary& o) const {
    return offered == o.offered && admitted == o.admitted &&
           rejected == o.rejected && batches == o.batches &&
           std::memcmp(&p99_s, &o.p99_s, sizeof p99_s) == 0 &&
           std::memcmp(&makespan_s, &o.makespan_s, sizeof makespan_s) == 0 &&
           std::memcmp(&mean_batch, &o.mean_batch, sizeof mean_batch) == 0;
  }
};

}  // namespace

void run_serve_ladder(const Args& args, Recorder& rec) {
  using namespace swcaffe;
  const hw::CostModel cost;
  serve::EngineOptions eopts;
  eopts.max_batch = kMaxBatch;
  eopts.tune = true;
  const serve::ModelFn model = [](int b) { return core::alexnet_bn(b); };

  // Setup: engine construction (per-batch-size describe + swtune search +
  // swcheck verify + pricing).
  std::unique_ptr<serve::InferenceEngine> engine;
  rec.set_tracing(args.trace);
  if (!timed_setup(rec, ref_alloc_sort_s, [&](int op, OpCheck&) {
        Span s(rec, "serve.engine_ctor", op);
        engine = std::make_unique<serve::InferenceEngine>(cost, "AlexNet",
                                                          model, eopts);
      })) {
    return;
  }
  // Later set-ups, between the measured passes, must price the same table.
  const auto setup_again = [&] {
    for (int r = 0; r < kSetupsPerOp; ++r) {
      timed_setup(rec, ref_alloc_sort_s, [&](int, OpCheck& check) {
        const serve::InferenceEngine again(cost, "AlexNet", model, eopts);
        for (int b = 1; b <= kMaxBatch; ++b) {
          check.expect(again.batch_time(b) == engine->batch_time(b),
                       "engine batch table differs between set-ups");
        }
      });
    }
  };
  rec.counter("tune.candidates_evaluated",
              static_cast<double>(engine->stats().candidates_evaluated));
  rec.counter("tune.candidates_rejected",
              static_cast<double>(engine->stats().candidates_rejected));
  if (args.trace) {
    // The per-batch-size plan searches the engine runs, one cold Tuner
    // each; one op, so tune.tune_net_s is their sum.
    const int op = rec.next_op();
    for (int b = 1; b <= kMaxBatch; ++b) {
      const std::vector<core::LayerDesc> descs =
          core::describe_net_spec(model(b));
      tune::Tuner tuner(cost);
      Span s(rec, "tune.tune_net", op);
      tuner.tune_net(descs);
    }
  }

  const double f1 = engine->batch_time(1);
  const double f8 = engine->batch_time(kMaxBatch);
  serve::ServeOptions sopts;
  sopts.batcher.max_batch = kMaxBatch;
  sopts.batcher.max_delay_s = f1;
  sopts.admission.slo_s = 3.0 * f8 + f1;
  check::ServingContract contract;
  contract.slo_s = sopts.admission.slo_s;
  contract.max_delay_s = sopts.batcher.max_delay_s;
  contract.max_batch = kMaxBatch;
  contract.max_batch_forward_s = f8;

  constexpr int kNumRungs = sizeof kRungs / sizeof kRungs[0];
  std::vector<std::vector<double>> arrivals(kNumRungs);
  for (int i = 0; i < kNumRungs; ++i) {
    arrivals[i] = make_arrivals(derive_seed(args.seed, 100 + i),
                                kRungs[i].load / f1, kDurationF1 * f1,
                                kRungs[i].bursty, kBurstPeriodF1 * f1);
  }

  std::vector<RungSummary> first(kNumRungs);
  bool have_first = false;
  std::string rungs_json = "[";
  const auto run_op = [&](int op, const char* warmup) {
    for (int i = 0; i < kNumRungs; ++i) {
      const Rung& rung = kRungs[i];
      OpCheck check{rec, warmup ? warmup : std::string("rung:") + rung.name};
      serve::ServeResult res;
      const double t0 = now_s();
      guarded(check, [&] {
        Span root(rec, "op.rung", op);
        Span s(rec, "serve.simulate_serving", op);
        res = serve::simulate_serving(*engine, arrivals[i], sopts);
      });
      const double wall = now_s() - t0;
      const int n = static_cast<int>(arrivals[i].size());
      check.expect(res.offered == n && res.admitted + res.rejected == n &&
                       static_cast<int>(res.requests.size()) == n,
                   "offered != admitted + rejected != arrivals");
      int misses = 0;
      for (const serve::RequestRecord& r : res.requests) {
        if (r.admitted && r.latency_s() > sopts.admission.slo_s) ++misses;
      }
      check.expect(misses == 0, std::to_string(misses) +
                                    " admitted requests missed the SLO");
      if (rec.tracing()) {
        guarded(check, [&] {
          check::TimelineGraph graph;
          {
            Span s(rec, "check.serving_extract", op);
            graph = check::timeline_from_serving("perfbench-serve",
                                                 res.requests, res.batches,
                                                 contract);
          }
          check::Report report;
          {
            Span s(rec, "check.serving_verify", op);
            report = check::verify_timeline(graph);
          }
          check.expect(report.ok(), "serving timeline: " + report.summary());
        });
      }
      RungSummary sum{res.offered,        res.admitted,
                      res.rejected,       static_cast<int>(res.batches.size()),
                      res.latency.p99_s,  res.makespan_s,
                      res.mean_batch_size};
      if (!have_first) {
        first[i] = sum;
        rungs_json += std::string(i ? ", " : "") + "{\"name\": " +
                      json_string(rung.name) +
                      ", \"rate\": " + json_number(rung.load / f1) +
                      ", \"poisson\": " + (rung.bursty ? "false" : "true") +
                      ", \"offered\": " + std::to_string(sum.offered) +
                      ", \"admitted\": " + std::to_string(sum.admitted) +
                      ", \"rejected\": " + std::to_string(sum.rejected) +
                      ", \"batches\": " + std::to_string(sum.batches) +
                      ", \"p99_s\": " + json_number(sum.p99_s) + "}";
      } else {
        check.expect(sum == first[i], "result differs from the first pass");
      }
      rec.record_op({op, check.kind, wall, static_cast<double>(n),
                     check.ok});
    }
    have_first = true;
  };
  run_phases(args, rec, 2, ref_alloc_sort_s, run_op, setup_again);
  rungs_json += "]";
  rec.extra("rungs", rungs_json);
  rec.sim("sim.serve_slo_s", sopts.admission.slo_s);
  rec.sim("sim.serve_f1_s", f1);
}

}  // namespace perfbench
