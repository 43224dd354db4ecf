// Fig. 2 reproduction: DMA get/put bandwidth for continuous and strided
// access patterns, for 1/8/16/32/64 CPEs.
//
// Left plots: bandwidth vs. per-CPE transfer size, continuous access.
// Right plots: bandwidth vs. block size, strided access, 32 KB per CPE.
#include <cstdio>
#include <iostream>
#include <vector>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "hw/cost_model.h"

using swcaffe::base::TablePrinter;
using swcaffe::base::fmt;
using swcaffe::hw::CostModel;

int main(int argc, char** argv) {
  swcaffe::bench::JsonBench json("bench_dma",
                                  swcaffe::bench::json_flag(argc, argv));
  CostModel cost;
  const std::vector<int> cpes = {1, 8, 16, 32, 64};

  std::printf("=== Fig. 2 (left): continuous DMA bandwidth (GB/s) ===\n");
  std::printf("(model symmetric in direction: one table covers get and put)\n");
  {
    std::vector<std::string> header{"size/CPE"};
    for (int c : cpes) header.push_back(std::to_string(c) + "CPE");
    TablePrinter t(header);
    for (std::size_t bytes : {128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u,
                              16384u, 24576u, 32768u, 49152u}) {
      std::vector<std::string> row{swcaffe::base::format_bytes(bytes)};
      for (int c : cpes) {
        row.push_back(fmt(cost.dma_bandwidth(bytes, c) / 1e9, 2));
      }
      json.metric("continuous_64cpe_" + std::to_string(bytes) + "b_gbs",
                  cost.dma_bandwidth(bytes, 64) / 1e9);
      t.add_row(row);
    }
    t.print(std::cout);
  }

  std::printf("\n=== Fig. 2 (right): strided DMA bandwidth (GB/s), "
              "32 KB total per CPE ===\n");
  {
    std::vector<std::string> header{"block"};
    for (int c : cpes) header.push_back(std::to_string(c) + "CPE");
    TablePrinter t(header);
    for (std::size_t block : {4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u,
                              2048u, 4096u, 8192u, 16384u}) {
      std::vector<std::string> row{swcaffe::base::format_bytes(block)};
      for (int c : cpes) {
        row.push_back(fmt(cost.dma_strided_bandwidth(32 * 1024, block, c) / 1e9, 2));
      }
      json.metric("strided_64cpe_block" + std::to_string(block) + "b_gbs",
                  cost.dma_strided_bandwidth(32 * 1024, block, 64) / 1e9);
      t.add_row(row);
    }
    t.print(std::cout);
  }

  std::printf("\nPaper shapes to check: saturation ~28 GB/s with 64 CPEs; "
              ">=2 KB transfers amortize the startup latency;\n"
              "strided blocks >=256 B reach satisfactory bandwidth "
              "(Principle 3). MPE copy path for comparison: %.1f GB/s.\n",
              cost.params().mpe_copy_bw / 1e9);
  return 0;
}
