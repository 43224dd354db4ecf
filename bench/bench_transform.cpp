// Sec. IV-C ablation: the tensor-transformation layer and the "gather
// implicit convolutions together" optimization. For each network, compares
// (a) the gathered plan (transforms at run boundaries only), (b) the naive
// plan (a transform pair around every implicit convolution), and (c) the
// all-explicit net that needs no transforms at all.
#include <cstdio>
#include <iostream>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "swdnn/transform_plan.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  bench::JsonBench json("bench_transform", bench::json_flag(argc, argv));
  hw::CostModel cost;
  struct Cfg {
    const char* name;
    core::NetSpec quarter;  // one core group's share
  };
  Cfg cfgs[] = {{"AlexNet (B=64/CG)", core::alexnet_bn(64)},
                {"VGG-16 (B=16/CG)", core::vgg(16, 16)},
                {"ResNet-50 (B=8/CG)", core::resnet50(8)},
                {"GoogleNet (B=32/CG)", core::googlenet(32)}};

  std::printf("=== Sec. IV-C: layout transform planning ===\n");
  std::printf("'gathered' = transforms only at implicit-run boundaries (the "
              "swCaffe plan); 'per-layer' = a pair around\nevery implicit "
              "conv; 'all-explicit' = avoid transforms entirely by forcing "
              "the explicit plan.\n\n");
  TablePrinter t({"network", "#transforms gathered", "#transforms per-layer",
                  "gathered iter", "per-layer iter", "all-explicit iter",
                  "gathered vs per-layer"});
  for (const auto& c : cfgs) {
    const auto descs = core::describe_net_spec(c.quarter);
    const auto plan = dnn::plan_layout_transforms(cost, descs);
    t.add_row({c.name, std::to_string(plan.gathered_transforms),
               std::to_string(plan.per_layer_transforms),
               base::format_seconds(plan.gathered_total_s),
               base::format_seconds(plan.per_layer_total_s),
               base::format_seconds(plan.all_explicit_total_s),
               fmt(plan.per_layer_total_s / plan.gathered_total_s, 3) + "x"});
    const std::string key = bench::metric_key(c.name);
    json.metric(key + "_gathered_s", plan.gathered_total_s);
    json.metric(key + "_per_layer_s", plan.per_layer_total_s);
    json.metric(key + "_all_explicit_s", plan.all_explicit_total_s);
  }
  t.print(std::cout);
  std::printf("\nShapes to check: gathering reduces transform count and "
              "never loses to per-layer transforms; the mixed\n"
              "implicit/explicit plan (gathered) beats forcing everything "
              "explicit wherever implicit kernels win (Table II).\n");
  return 0;
}
