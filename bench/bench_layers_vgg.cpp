// Fig. 9 reproduction: per-layer forward/backward time of VGG-16 on the
// SW26010 model vs the K40m GPU model, batch 64 (SW column: one core group
// at batch/4 = 16, the unit Algorithm 1 schedules).
#include <cstdio>

#include "bench_json.h"
#include "../tests/fixtures.h"
#include "core/models.h"
#include "layer_table.h"

int main(int argc, char** argv) {
  using namespace swcaffe;
  bench::JsonBench json("bench_layers_vgg", bench::json_flag(argc, argv));
  std::printf("=== Fig. 9: VGG-16 per-layer times, batch 64 "
              "(SW column: one CG at batch 16) ===\n\n");
  const auto descs = fixtures::vgg_per_cg_descs(16);
  const auto [sw_total, gpu_total] = benchutil::print_layer_comparison(descs);
  json.metric("sw_total_s", sw_total);
  json.metric("gpu_total_s", gpu_total);
  std::printf(
      "\nPaper shapes to check (Sec. VI-A): the first two convolutions lag "
      "the GPU most (im2col traffic on 224x224\nimages, 3/64 channels); "
      "mid-network convolutions approach GPU times; pooling/ReLU remain "
      "bandwidth-bound on SW26010.\n");
  return 0;
}
