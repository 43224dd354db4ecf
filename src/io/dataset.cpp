#include "io/dataset.h"

#include <cmath>

#include "base/log.h"

namespace swcaffe::io {

int SyntheticImageNet::label_of(std::int64_t index) const {
  SWC_CHECK_GE(index, 0);
  SWC_CHECK_LT(index, spec_.num_samples);
  // Stable hash -> label so labels are balanced but not trivially periodic.
  std::uint64_t h = static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ull +
                    spec_.seed;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<int>(h % spec_.classes);
}

void SyntheticImageNet::fill_image(std::int64_t index,
                                   std::vector<float>& out) const {
  const int label = label_of(index);
  const std::size_t n =
      static_cast<std::size_t>(spec_.channels) * spec_.height * spec_.width;
  out.resize(n);
  base::Rng rng(spec_.seed ^ (static_cast<std::uint64_t>(index) * 0xABCDull));
  // Class-dependent low-frequency pattern plus noise: enough structure for a
  // model to fit, statistically ImageNet-like in mean/variance.
  rng.fill_gaussian(out, 0.0f, 0.3f);
  for (std::size_t i = 0; i < n; ++i) {
    const float pattern =
        0.5f * std::sin(0.01f * static_cast<float>(i) * ((label % 17) + 1));
    out[i] += pattern;
  }
}

Sampler::Sampler(std::int64_t num_samples, std::uint64_t seed, int rank)
    : num_samples_(num_samples),
      rng_(seed ^ (static_cast<std::uint64_t>(rank) * 0x5DEECE66Dull)) {
  SWC_CHECK_GT(num_samples_, 0);
}

std::int64_t Sampler::next() { return rng_.uniform_int(0, num_samples_ - 1); }

}  // namespace swcaffe::io
