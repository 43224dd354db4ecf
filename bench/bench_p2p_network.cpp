// Fig. 6 reproduction: MPI point-to-point bandwidth and latency curves for
// the Sunway network vs. an Infiniband FDR network, including the
// over-subscribed cross-supernode variants.
#include <cstdio>
#include <iostream>
#include <vector>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "topo/network_model.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  bench::JsonBench json("bench_p2p_network", bench::json_flag(argc, argv));
  const topo::NetParams sw = topo::sunway_network();
  const topo::NetParams ib = topo::infiniband_fdr();

  std::printf("=== Fig. 6 (left): P2P bandwidth (GB/s) vs message size ===\n");
  {
    TablePrinter t({"size", "SW uni", "SW bi", "SW uni-oversub",
                    "SW bi-oversub", "IB uni", "IB bi"});
    for (std::int64_t n = 1; n <= (4 << 20); n *= 4) {
      t.add_row({base::format_bytes(static_cast<double>(n)),
                 fmt(topo::p2p_bandwidth(sw, n, false, false) / 1e9, 2),
                 fmt(topo::p2p_bandwidth(sw, n, true, false) / 1e9, 2),
                 fmt(topo::p2p_bandwidth(sw, n, false, true) / 1e9, 2),
                 fmt(topo::p2p_bandwidth(sw, n, true, true) / 1e9, 2),
                 fmt(topo::p2p_bandwidth(ib, n, false, false) / 1e9, 2),
                 fmt(topo::p2p_bandwidth(ib, n, true, false) / 1e9, 2)});
      json.metric("sw_uni_" + std::to_string(n) + "b_gbs",
                  topo::p2p_bandwidth(sw, n, false, false) / 1e9);
      json.metric("ib_uni_" + std::to_string(n) + "b_gbs",
                  topo::p2p_bandwidth(ib, n, false, false) / 1e9);
    }
    t.print(std::cout);
  }

  std::printf("\n=== Fig. 6 (right): P2P latency (ms) vs message size ===\n");
  {
    TablePrinter t({"size", "SW", "Infiniband"});
    for (std::int64_t n = 0; n <= (2 << 20); n = n == 0 ? 2 : n * 4) {
      t.add_row({base::format_bytes(static_cast<double>(n)),
                 fmt(topo::p2p_latency(sw, n) * 1e3, 4),
                 fmt(topo::p2p_latency(ib, n) * 1e3, 4)});
      json.metric("sw_latency_" + std::to_string(n) + "b_ms",
                  topo::p2p_latency(sw, n) * 1e3);
      json.metric("ib_latency_" + std::to_string(n) + "b_ms",
                  topo::p2p_latency(ib, n) * 1e3);
    }
    t.print(std::cout);
  }

  std::printf("\nPaper shapes to check: SW saturates near 12 GB/s (vs IB "
              "~6.8); over-subscribed bandwidth is ~1/4 of full;\n"
              "SW latency exceeds IB for messages >2 KB (eager->rendezvous "
              "switch), reaching ms-scale by 2 MB.\n");
  return 0;
}
