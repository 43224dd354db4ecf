// GEMM kernel microbenchmarks:
//  * host reference sgemm throughput (the framework's functional engine):
//    square NN at n = 64/128/256 and the shapes the reduced AlexNet-BN
//    trainer spends its time in,
//  * the functional mesh-GEMM simulation (including its simulated-time
//    outputs), and
//  * the RLC-vs-no-RLC analytic ablation (Principle 4: register
//    communication cuts the DMA stream by the mesh factor).
//
// Host timings are the best of a few repetitions, each repeating the kernel
// until it has run for at least 20 ms; simulated numbers are deterministic.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/table.h"
#include "bench_json.h"
#include "hw/chip.h"
#include "swgemm/estimate.h"
#include "swgemm/mesh_gemm.h"
#include "swgemm/reference.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

/// Best seconds per call of fn over 3 rounds of >= 20 ms each.
template <class Fn>
double seconds_per_call(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e30;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = clock::now();
    int calls = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < 0.02);
    best = std::min(best, elapsed / calls);
  }
  return best;
}

struct HostShape {
  const char* key;  ///< metric prefix
  const char* what;
  bool trans_a, trans_b;
  int m, n, k;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_gemm", bench::json_flag(argc, argv));

  std::printf("=== Host reference sgemm (C = op(A) op(B), beta = 0) ===\n");
  const HostShape shapes[] = {
      {"nn_64", "square", false, false, 64, 64, 64},
      {"nn_128", "square", false, false, 128, 128, 128},
      {"nn_256", "square", false, false, 256, 256, 256},
      {"nt_384x3456x9", "conv4 dW", false, true, 384, 3456, 9},
      {"nt_256x2400x49", "conv2 dW", false, true, 256, 2400, 49},
      {"tn_3456x9x384", "conv4 dX", true, false, 3456, 9, 384},
      {"nt_2x4096x4096", "fc7 forward", false, true, 2, 4096, 4096},
      {"nn_2x4096x4096", "fc7 dX", false, false, 2, 4096, 4096},
      {"tn_4096x4096x2", "fc7 dW", true, false, 4096, 4096, 2},
  };
  TablePrinter host({"shape", "layer", "mode", "ms/call", "GFLOP/s"});
  base::Rng rng(1);
  for (const HostShape& s : shapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k),
        b(static_cast<std::size_t>(s.k) * s.n),
        c(static_cast<std::size_t>(s.m) * s.n);
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);
    const double t = seconds_per_call([&] {
      gemm::sgemm(s.trans_a, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                  b.data(), 0.0f, c.data());
    });
    const double gflops = 2.0 * s.m * s.n * s.k / t / 1e9;
    const std::string mode = std::string(s.trans_a ? "T" : "N") +
                             (s.trans_b ? "T" : "N");
    host.add_row({std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                      std::to_string(s.k),
                  s.what, mode, fmt(t * 1e3, 3), fmt(gflops, 2)});
    json.metric(std::string("host_") + s.key + "_gflops", gflops);
  }
  host.print(std::cout);

  std::printf("\n=== Functional mesh GEMM (8x8 CPE mesh, double) ===\n");
  TablePrinter mesh({"n", "host ms/call", "simulated us"});
  hw::CoreGroup cg{hw::HwParams{}};
  for (int n : {32, 64, 128}) {
    std::vector<double> a(static_cast<std::size_t>(n) * n),
        b(static_cast<std::size_t>(n) * n), c(static_cast<std::size_t>(n) * n);
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);
    double simulated = 0.0;
    const double t = seconds_per_call([&] {
      std::fill(c.begin(), c.end(), 0.0);
      simulated = gemm::mesh_gemm(cg, a, b, c, n, n, n).ledger.elapsed_s;
    });
    mesh.add_row({std::to_string(n), fmt(t * 1e3, 3), fmt(simulated * 1e6, 3)});
    json.metric("mesh_" + std::to_string(n) + "_sim_us", simulated * 1e6);
  }
  mesh.print(std::cout);

  std::printf("\n=== RLC ablation (analytic, square n) ===\n");
  TablePrinter rlc({"n", "RLC GFLOP/s", "no-RLC slowdown"});
  hw::CostModel cost;
  for (int n : {256, 1024, 4096}) {
    const auto with = gemm::estimate_gemm(cost, n, n, n);
    const auto without = gemm::estimate_gemm_no_rlc(cost, n, n, n);
    const double slowdown = without.seconds / with.seconds;
    rlc.add_row({std::to_string(n), fmt(with.achieved_gflops, 1),
                 fmt(slowdown, 2) + "x"});
    json.metric("rlc_" + std::to_string(n) + "_gflops", with.achieved_gflops);
    json.metric("rlc_" + std::to_string(n) + "_no_rlc_slowdown", slowdown);
  }
  rlc.print(std::cout);
  return 0;
}
