// Helpers for the same-order oracle tests of the host kernels (sgemm and
// the implicit convolution): operands laced with the IEEE values that expose
// a changed summation order or a dropped skip branch, and a bitwise
// comparison that lets any NaN match any NaN.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/rng.h"

namespace swcaffe::oracle {

/// Uniform values in [-1, 1] with about 4% +0, 2% -0 and 2% denormals, plus
/// +Inf, -Inf and NaN each at `nonfinite_rate`.
inline std::vector<float> special_vec(std::size_t n, base::Rng& rng,
                                      double nonfinite_rate) {
  auto unit = [&rng] { return rng.uniform(0.0f, 1.0f); };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> v(n);
  for (auto& x : v) {
    const double u = unit();
    if (u < nonfinite_rate) {
      x = kInf;
    } else if (u < 2 * nonfinite_rate) {
      x = -kInf;
    } else if (u < 3 * nonfinite_rate) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else if (u < 3 * nonfinite_rate + 0.04) {
      x = 0.0f;
    } else if (u < 3 * nonfinite_rate + 0.06) {
      x = -0.0f;
    } else if (u < 3 * nonfinite_rate + 0.08) {
      x = (2.0f * unit() - 1.0f) * 1e-39f;  // denormal (or +-0)
    } else {
      x = 2.0f * unit() - 1.0f;
    }
  }
  return v;
}

/// Index of the first element whose bits differ (any NaN matches any NaN),
/// or -1 when the vectors are the same.
inline long first_bit_mismatch(const std::vector<float>& got,
                               const std::vector<float>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i]) ? !std::isnan(got[i])
                            : std::bit_cast<std::uint32_t>(got[i]) !=
                                  std::bit_cast<std::uint32_t>(want[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace swcaffe::oracle
