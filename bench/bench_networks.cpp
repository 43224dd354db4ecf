// Table I (spec sheet) and Table III reproduction: end-to-end training
// throughput (img/s) of the five networks on the CPU model, the K40m model
// and the SW26010 model, with the SW/NV and SW/CPU ratio columns.
#include <cstdio>
#include <iostream>

#include "base/table.h"
#include "bench_json.h"
#include "../tests/fixtures.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "perfmodel/device_model.h"
#include "swdnn/layer_estimate.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

struct NetCfg {
  const char* name;
  core::NetSpec full;     // full batch (CPU/GPU run the whole mini-batch)
  core::NetSpec quarter;  // batch/4 (one SW26010 core group, Algorithm 1)
  int batch;
  double paper_cpu, paper_gpu, paper_sw;
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_networks", bench::json_flag(argc, argv));
  std::printf("=== Table I: processor comparison ===\n");
  {
    TablePrinter t({"spec", "SW26010", "NVIDIA K40m", "Intel KNL"});
    t.add_row({"release year", "2014", "2013", "2016"});
    t.add_row({"bandwidth (GB/s)", "128", "288", "475"});
    t.add_row({"float perf (TFlops)", "3.02", "4.29", "6.92"});
    t.add_row({"double perf (TFlops)", "3.02", "1.43", "3.46"});
    t.print(std::cout);
  }

  // Paper Table III values for side-by-side reporting.
  NetCfg cfgs[] = {
      {"AlexNet", fixtures::alexnet_spec(),
       fixtures::alexnet_spec(fixtures::kAlexNetBatchPerCg),
       fixtures::kAlexNetBatch, 12.01,
       79.25, 94.17},
      {"VGG-16", fixtures::vgg_spec(16),
       fixtures::vgg_spec(16, fixtures::kVggBatchPerCg), fixtures::kVggBatch,
       1.06, 13.79, 6.21},
      {"VGG-19", fixtures::vgg_spec(19),
       fixtures::vgg_spec(19, fixtures::kVggBatchPerCg), fixtures::kVggBatch,
       1.07, 11.2, 5.52},
      {"ResNet-50", fixtures::resnet50_spec(),
       fixtures::resnet50_spec(fixtures::kResNet50BatchPerCg),
       fixtures::kResNet50Batch, 1.99, 25.45, 5.56},
      {"GoogleNet", core::googlenet(128), core::googlenet(32), 128, 4.92,
       66.09, 14.97},
  };

  std::printf("\n=== Table III: throughput in img/s, ours (paper) ===\n");
  hw::CostModel cost;
  const auto gpu = perfmodel::k40m();
  const auto cpu = perfmodel::xeon_e5_2680v3();
  TablePrinter t({"network", "CPU", "NV K40m", "SW", "SW/NV", "SW/CPU"});
  for (const auto& c : cfgs) {
    const auto full = core::describe_net_spec(c.full);
    const auto quarter = core::describe_net_spec(c.quarter);
    const std::int64_t input_bytes = fixtures::imagenet_input_bytes(c.batch);
    const double cpu_img =
        perfmodel::device_throughput_img_s(cpu, full, c.batch, 0);
    const double gpu_img =
        perfmodel::device_throughput_img_s(gpu, full, c.batch, input_bytes);
    const double sw_img = dnn::node_throughput_img_s(cost, quarter, c.batch);
    auto pair = [](double ours, double paper) {
      return fmt(ours, 2) + " (" + fmt(paper, 2) + ")";
    };
    t.add_row({c.name, pair(cpu_img, c.paper_cpu), pair(gpu_img, c.paper_gpu),
               pair(sw_img, c.paper_sw),
               pair(sw_img / gpu_img, c.paper_sw / c.paper_gpu),
               pair(sw_img / cpu_img, c.paper_sw / c.paper_cpu)});
    const std::string key = bench::metric_key(c.name);
    json.metric(key + "_cpu_img_s", cpu_img);
    json.metric(key + "_gpu_img_s", gpu_img);
    json.metric(key + "_sw_img_s", sw_img);
  }
  t.print(std::cout);
  std::printf(
      "\nPaper shapes to check: SW beats the K40m only on AlexNet "
      "(PCIe-bound input pipeline, Sec. VI-B); GPU wins\n2-5x on "
      "VGG/ResNet/GoogleNet; SW beats the 12-core CPU on every network "
      "(paper: 3.04x-7.84x).\n");

  std::printf("\n=== Ablation: the paper's AlexNet refinement (LRN->BN, "
              "ungrouped) vs the original ===\n");
  {
    TablePrinter a({"variant", "params (MB)", "SW img/s", "notes"});
    const auto refined = fixtures::alexnet_per_cg_descs();
    const auto original =
        core::describe_net_spec(core::alexnet_original(64));
    auto params_mb = [](const std::vector<core::LayerDesc>& d) {
      return core::total_param_bytes(d) / 1e6;
    };
    a.add_row({"AlexNet-BN (paper)", fmt(params_mb(refined), 1),
               fmt(dnn::node_throughput_img_s(cost, refined, 256), 2),
               "BN replaces LRN (Sec. VI-A); no channel groups"});
    a.add_row({"AlexNet original", fmt(params_mb(original), 1),
               fmt(dnn::node_throughput_img_s(cost, original, 256), 2),
               "LRN + historical 2-group conv2/4/5"});
    a.print(std::cout);
    std::printf("The original's 2-group convolutions halve the flop count, "
                "which outweighs their narrower per-group channels\n"
                "in the model, so it is marginally faster; the paper's "
                "refinement ('without affecting the accuracy', Sec. VI-A)\n"
                "trades that for BN's training behaviour and wide channels "
                "that suit the implicit kernel.\n");
  }
  return 0;
}
