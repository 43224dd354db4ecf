#include "tensor/filler.h"

#include <algorithm>
#include <cmath>

#include "base/log.h"

namespace swcaffe::tensor {

FillerSpec FillerSpec::constant(float v) {
  FillerSpec s;
  s.type = FillerType::kConstant;
  s.value = v;
  return s;
}

FillerSpec FillerSpec::gaussian(float mean, float stddev) {
  FillerSpec s;
  s.type = FillerType::kGaussian;
  s.mean = mean;
  s.stddev = stddev;
  return s;
}

FillerSpec FillerSpec::uniform(float lo, float hi) {
  FillerSpec s;
  s.type = FillerType::kUniform;
  s.min = lo;
  s.max = hi;
  return s;
}

FillerSpec FillerSpec::xavier() {
  FillerSpec s;
  s.type = FillerType::kXavier;
  return s;
}

FillerSpec FillerSpec::msra() {
  FillerSpec s;
  s.type = FillerType::kMsra;
  return s;
}

void fill(Tensor& t, const FillerSpec& spec, base::Rng& rng) {
  auto data = t.data();
  switch (spec.type) {
    case FillerType::kConstant:
      std::ranges::fill(data, spec.value);
      break;
    case FillerType::kUniform:
      rng.fill_uniform(data, spec.min, spec.max);
      break;
    case FillerType::kGaussian:
      rng.fill_gaussian(data, spec.mean, spec.stddev);
      break;
    case FillerType::kXavier: {
      SWC_CHECK_GE(t.num_axes(), 2);
      const double fan_in = static_cast<double>(t.count()) / t.dim(0);
      const double fan_out = static_cast<double>(t.count()) / t.dim(1);
      const float scale =
          static_cast<float>(std::sqrt(6.0 / (fan_in + fan_out)));
      rng.fill_uniform(data, -scale, scale);
      break;
    }
    case FillerType::kMsra: {
      SWC_CHECK_GE(t.num_axes(), 2);
      const double fan_in = static_cast<double>(t.count()) / t.dim(0);
      const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
      rng.fill_gaussian(data, 0.0f, stddev);
      break;
    }
  }
}

}  // namespace swcaffe::tensor
