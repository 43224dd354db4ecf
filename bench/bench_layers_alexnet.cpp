// Fig. 8 reproduction: per-layer forward/backward time of AlexNet (with the
// paper's LRN->BN refinement) on the SW26010 model vs the K40m GPU model,
// batch 256 (SW times shown for one core group processing batch/4 = 64, the
// unit Algorithm 1 schedules).
#include <cstdio>

#include "bench_json.h"
#include "../tests/fixtures.h"
#include "core/models.h"
#include "layer_table.h"

int main(int argc, char** argv) {
  using namespace swcaffe;
  bench::JsonBench json("bench_layers_alexnet", bench::json_flag(argc, argv));
  std::printf("=== Fig. 8: AlexNet-BN per-layer times, batch 256 "
              "(SW column: one CG at batch 64) ===\n\n");
  const auto descs = fixtures::alexnet_per_cg_descs();
  const auto [sw_total, gpu_total] = benchutil::print_layer_comparison(descs);
  json.metric("sw_total_s", sw_total);
  json.metric("gpu_total_s", gpu_total);
  std::printf(
      "\nPaper shapes to check (Sec. VI-A): bandwidth-bound layers "
      "(pool/bn/relu) cost real time on SW26010 but are\nnearly free on the "
      "GPU's 288 GB/s memory; conv1 (3 input channels, large image) is "
      "SW26010's weakest layer;\nfc6/fc7 GEMMs are competitive thanks to the "
      "register-communication kernel.\n");
  return 0;
}
