// Ablation for the paper's gradient-packing optimization (Sec. V-A): one
// fused all-reduce over the packed gradients of all layers vs one all-reduce
// per layer. Per-layer messages pay the log(p)-deep latency chain once per
// layer and leave sum/memory bandwidth underutilized on small tensors.
#include <cstdio>
#include <iostream>
#include <vector>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "core/models.h"
#include "topo/allreduce.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  bench::JsonBench json("bench_packing", bench::json_flag(argc, argv));
  const topo::NetParams net = topo::sunway_network();
  struct Cfg {
    const char* name;
    core::NetSpec spec;
  };
  Cfg cfgs[] = {{"AlexNet", core::alexnet_bn(256)},
                {"VGG-16", core::vgg(16, 64)},
                {"ResNet-50", core::resnet50(32)},
                {"GoogleNet", core::googlenet(128)}};

  std::printf("=== Ablation: packed vs per-layer gradient all-reduce "
              "(1024 nodes, q=256, round-robin) ===\n");
  std::printf("The paper packs all layers' gradients into one message "
              "(Sec. V-A): 'Sum operation for layer gradients of small\n"
              "parameter size can be inefficient'. VGG-16's extremes: fc6 "
              "~400 MB vs conv1_1 1.7 KB.\n\n");
  topo::Topology topo{1024, 256};
  TablePrinter t({"network", "layers w/ params", "total grads", "packed",
                  "per-layer", "packing speedup"});
  for (const auto& c : cfgs) {
    const auto descs = core::describe_net_spec(c.spec);
    double per_layer_s = 0.0;
    std::int64_t total_bytes = 0;
    int param_layers = 0;
    for (const auto& d : descs) {
      if (d.param_bytes() == 0) continue;
      ++param_layers;
      total_bytes += d.param_bytes();
      per_layer_s += topo::cost_rhd(d.param_bytes(), topo, net,
                                    topo::Placement::kRoundRobin)
                         .seconds;
    }
    const double packed_s =
        topo::cost_rhd(total_bytes, topo, net, topo::Placement::kRoundRobin)
            .seconds;
    t.add_row({c.name, std::to_string(param_layers),
               base::format_bytes(static_cast<double>(total_bytes)),
               base::format_seconds(packed_s),
               base::format_seconds(per_layer_s),
               fmt(per_layer_s / packed_s, 2) + "x"});
    const std::string key = bench::metric_key(c.name);
    json.metric(key + "_packed_s", packed_s);
    json.metric(key + "_per_layer_s", per_layer_s);
    json.metric(key + "_packing_speedup", per_layer_s / packed_s);
  }
  t.print(std::cout);
  std::printf("\nShape to check: deep nets with many small parameter tensors "
              "(ResNet-50, GoogleNet) gain the most from packing.\n");
  return 0;
}
