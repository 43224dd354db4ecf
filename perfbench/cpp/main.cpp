// perfbench: runs one benchmark workload and writes its raw record (ops,
// setup samples, spans, counters, simulated values) as JSON.
//
//   perfbench --workload ssgd-train|serve-ladder|sched-trace --seed N
//             --seconds S --trace 0|1 --out FILE
//
// perfbench/run.py builds this binary, runs it and reduces the record to
// the benchmark's metrics. Exit codes: 0 record written (check failures
// are part of the record), 2 usage error.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/models.h"
#include "hw/cost_model.h"
#include "swdnn/layer_estimate.h"
#include "workloads.h"

namespace perfbench {

void run_phases(const Args& args, Recorder& rec, int min_ops,
                double (*host_ref)(),
                const std::function<void(int op, const char* kind)>& body,
                const std::function<void()>& between) {
  rec.set_tracing(false);
  body(rec.next_op(), "warmup");
  const int phases = args.trace ? 2 : 1;
  for (int p = 0; p < phases; ++p) {
    rec.set_tracing(args.trace && p == phases - 1);
    const double deadline = now_s() + args.seconds / phases;
    int n = 0;
    do {
      const int op = rec.next_op();
      rec.host_ref(op, host_ref());
      body(op, nullptr);
      ++n;
      if (between && !args.trace) between();
    } while (n < min_ops || now_s() < deadline);
  }
  rec.set_tracing(args.trace);
}

bool timed_setup(Recorder& rec, double (*host_ref)(),
                 const std::function<void(int op, OpCheck& check)>& fn) {
  const int op = rec.next_op();
  rec.host_ref(op, host_ref());
  OpCheck check{rec, "setup"};
  const double t0 = now_s();
  guarded(check, [&] { fn(op, check); });
  const double wall = now_s() - t0;
  rec.setup_sample(wall);
  rec.record_op({op, "setup", wall, 0.0, check.ok});
  return check.ok;
}

namespace {

/// Paper Table III, SW26010 column (img/s), with the paper's batch sizes.
void record_table3_fidelity(Recorder& rec) {
  using namespace swcaffe;
  struct Row {
    const char* key;
    core::NetSpec quarter;  ///< one core group's quarter of the batch
    int batch;
    double paper_img_s;
  };
  const hw::CostModel cost;
  const Row rows[] = {
      {"alexnet", core::alexnet_bn(256 / 4), 256, 94.17},
      {"vgg16", core::vgg(16, 64 / 4), 64, 6.21},
      {"resnet50", core::resnet50(32 / 4), 32, 5.56},
  };
  for (const Row& r : rows) {
    const double ours = dnn::node_throughput_img_s(
        cost, core::describe_net_spec(r.quarter), r.batch);
    rec.sim(std::string("sim.table3_img_s.") + r.key, ours);
    rec.sim(std::string("sim.table3_rel_err.") + r.key,
            std::fabs(ours - r.paper_img_s) / r.paper_img_s);
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ssgd-train|serve-ladder|sched-trace --seed N --seconds S "
               "--trace 0|1 --out FILE\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      args.trace = v[0] == '1';
    } else if (flag == "--out") {
      out_path = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Args&, Recorder&) = nullptr;
  if (args.workload == "ssgd-train") run = run_ssgd_train;
  if (args.workload == "serve-ladder") run = run_serve_ladder;
  if (args.workload == "sched-trace") run = run_sched_trace;
  if (run == nullptr) return usage("unknown --workload");
  if (out_path.empty()) return usage("--out is required");

  Recorder rec;
  try {
    run(args, rec);
  } catch (const std::exception& e) {
    rec.failure(std::string("workload threw: ") + e.what());
    rec.record_op({rec.next_op(), "workload", 0.0, 0.0, false});
  }
  rec.set_tracing(false);
  try {
    record_table3_fidelity(rec);
  } catch (const std::exception& e) {
    rec.failure(std::string("table3 fidelity threw: ") + e.what());
    rec.record_op({rec.next_op(), "table3", 0.0, 0.0, false});
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  rec.counter("peak_rss_kib", static_cast<double>(ru.ru_maxrss));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  rec.write_json(out, args.workload, args.seed, args.trace);
  return std::fclose(out) == 0 ? 0 : 1;
}
