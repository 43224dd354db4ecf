// LSTM layer timing (paper Sec. IV-A names LSTM among the GEMM-dominated
// layers the mesh kernel serves): SW26010 vs K40m across hidden sizes and
// sequence lengths. The per-step gate GEMM is exactly the workload the
// register-communication GEMM is optimized for, so the SW/GPU gap narrows
// with hidden size the way the FC layers in Fig. 8 do.
#include <cstdio>
#include <iostream>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "core/layer_desc.h"
#include "hw/cost_model.h"
#include "perfmodel/device_model.h"
#include "swdnn/layer_estimate.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  bench::JsonBench json("bench_lstm", bench::json_flag(argc, argv));
  hw::CostModel cost;
  const auto gpu = perfmodel::k40m();
  std::printf("=== LSTM layer: per-iteration time, batch 64 per core group "
              "===\n");
  TablePrinter t({"T", "input", "hidden", "SW fwd+bwd", "GPU fwd+bwd",
                  "SW/GPU", "gate GEMM (m,n,k)"});
  for (int hidden : {128, 256, 512, 1024}) {
    for (int steps : {16, 64}) {
      core::LayerDesc d;
      d.name = "lstm";
      d.kind = core::LayerKind::kLSTM;
      const int input = hidden;  // square recurrent cell
      d.fc = core::FcGeom{64, 4 * hidden,
                          static_cast<std::int64_t>(input) + hidden};
      d.steps = steps;
      d.input_count = static_cast<std::int64_t>(steps) * 64 * input;
      d.output_count = static_cast<std::int64_t>(steps) * 64 * hidden;
      d.param_count =
          static_cast<std::int64_t>(4) * hidden * (input + hidden);
      const auto sw = dnn::estimate_layer_sw(cost, d);
      const auto gp = perfmodel::estimate_layer_dev(gpu, d);
      t.add_row({std::to_string(steps), std::to_string(input),
                 std::to_string(hidden), base::format_seconds(sw.total()),
                 base::format_seconds(gp.total()),
                 fmt(sw.total() / gp.total(), 2) + "x",
                 "64 x " + std::to_string(4 * hidden) + " x " +
                     std::to_string(input + hidden)});
      const std::string key = "h" + std::to_string(hidden) + "_t" +
                              std::to_string(steps);
      json.metric(key + "_sw_s", sw.total());
      json.metric(key + "_gpu_s", gp.total());
    }
  }
  t.print(std::cout);
  std::printf("\nShape to check: the SW/GPU ratio improves with hidden size "
              "(bigger GEMMs amortize LDM blocking), mirroring\nthe FC-layer "
              "behaviour in Fig. 8; small cells are launch/latency bound on "
              "both architectures.\n");
  return 0;
}
