// Host reference kernels (see workloads.h). Fixed, benchmark-owned work:
// nothing here calls the simulator, so a change to the program cannot
// change what these kernels compute.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kInserts = 60000;
constexpr std::size_t kSorted = 100000;

}  // namespace

double ref_sort_s() {
  static std::vector<double> source, values;
  if (source.empty()) {
    SplitMix rng(13);
    source.resize(kSorted);
    for (double& v : source) v = rng.uniform();
    values.resize(kSorted);
  }
  const double t0 = now_s();
  std::copy(source.begin(), source.end(), values.begin());
  std::sort(values.begin(), values.end());
  const double wall = now_s() - t0;
  volatile double sink = values[kSorted / 2];
  (void)sink;
  return wall;
}

double ref_alloc_sort_s() {
  const double t0 = now_s();
  std::size_t check = 0;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    SplitMix rng(11);
    for (int i = 0; i < kInserts; ++i) map[rng.next()] = i;
    std::vector<double> values(kSorted);
    for (double& v : values) v = rng.uniform();
    std::sort(values.begin(), values.end());
    check = map.size() + static_cast<std::size_t>(values[kSorted / 2] * 8);
  }
  const double wall = now_s() - t0;
  volatile std::size_t sink = check;
  (void)sink;
  return wall;
}

}  // namespace perfbench
