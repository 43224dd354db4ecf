#include "base/rng.h"

#include <bit>
#include <cmath>

#include "base/log.h"

// This file is compiled with -ffp-contract=off (see CMakeLists.txt): a fused
// multiply-add would round `u * u + v * v` or `mean + stddev * z` differently
// on hosts that have one, and the streams must be the same everywhere.

namespace swcaffe::base {

namespace {

// Tags that derive the independent keys of one seed.
constexpr std::uint64_t kGaussTag = 0x6761757373000001ULL;       // "gauss"
constexpr std::uint64_t kGaussRetryTag = 0x6761757373000002ULL;
constexpr std::uint64_t kIntRetryTag = 0x696e740000000003ULL;    // "int"

/// Word i of the stream keyed by `key`.
inline std::uint64_t word(std::uint64_t key, std::uint64_t i) {
  return splitmix64(key + i * kSplitmixGamma);
}

/// Uniform double in [0, 1) from the top 53 bits.
inline double unit(std::uint64_t w) {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

/// Uniform double in [-1, 1) from the top 53 bits (exact).
inline double signed_unit(std::uint64_t w) {
  return static_cast<double>(static_cast<std::int64_t>(w) >> 11) * 0x1.0p-52;
}

/// Marsaglia's polar method for gaussian pair `k`: the first attempt takes
/// words 2k and 2k+1 of the gaussian stream, retries take consecutive word
/// pairs of the pair's own sub-stream.
inline void polar_pair(std::uint64_t gauss_key, std::uint64_t retry_key,
                       std::uint64_t k, double z[2]) {
  std::uint64_t w0 = word(gauss_key, 2 * k);
  std::uint64_t w1 = word(gauss_key, 2 * k + 1);
  std::uint64_t sub = 0;
  for (std::uint64_t j = 0;; ++j) {
    const double u = signed_unit(w0);
    const double v = signed_unit(w1);
    const double s = u * u + v * v;
    if (s < 1.0 && s > 0.0) {
      const double f = std::sqrt(-2.0 * std::log(s) / s);
      z[0] = u * f;
      z[1] = v * f;
      return;
    }
    if (j == 0) sub = word(retry_key, k);
    w0 = word(sub, 2 * j);
    w1 = word(sub, 2 * j + 1);
  }
}

inline float scale_normal(double z, double mean, double stddev) {
  return static_cast<float>(mean + stddev * z);
}

/// Maps a unit draw into [lo, hi); rounding to float may land on hi, which
/// becomes the largest float below it.
inline float uniform_from(std::uint64_t w, float lo, float hi, double width) {
  const float r =
      static_cast<float>(static_cast<double>(lo) + width * unit(w));
  return r < hi ? r : std::nextafter(hi, lo);
}

void check_uniform(float lo, float hi) {
  SWC_CHECK_MSG(std::isfinite(lo) && std::isfinite(hi) && lo < hi,
                "Rng::uniform needs finite lo < hi, got [" << lo << ", " << hi
                                                           << ")");
}

void check_gaussian(float stddev) {
  SWC_CHECK_MSG(stddev >= 0.0f,
                "Rng::gaussian needs stddev >= 0, got " << stddev);
}

void check_bernoulli(double p) {
  SWC_CHECK_MSG(p >= 0.0 && p <= 1.0,
                "Rng::bernoulli needs p in [0, 1], got " << p);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
    : key_(splitmix64(seed)),
      gauss_key_(splitmix64(key_ ^ kGaussTag)),
      gauss_retry_key_(splitmix64(key_ ^ kGaussRetryTag)),
      int_retry_key_(splitmix64(key_ ^ kIntRetryTag)) {}

float Rng::uniform(float lo, float hi) {
  check_uniform(lo, hi);
  const double width = static_cast<double>(hi) - static_cast<double>(lo);
  return uniform_from(word(key_, pos_++), lo, hi, width);
}

float Rng::gaussian(float mean, float stddev) {
  check_gaussian(stddev);
  return scale_normal(normal_at(pos_++), mean, stddev);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SWC_CHECK_MSG(lo <= hi,
                "Rng::uniform_int needs lo <= hi, got [" << lo << ", " << hi
                                                         << "]");
  const std::uint64_t i = pos_++;
  const std::uint64_t w = word(key_, i);
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
  if (range == ~0ULL) return static_cast<std::int64_t>(base + w);
  // Lemire's multiply-shift: the high word of w * n is uniform in [0, n) once
  // the low word is at least 2^64 mod n; rejected words are replaced from
  // this position's own sub-stream.
  const std::uint64_t n = range + 1;
  unsigned __int128 m = static_cast<unsigned __int128>(w) * n;
  if (static_cast<std::uint64_t>(m) < n) {
    const std::uint64_t threshold = (0 - n) % n;
    const std::uint64_t sub = word(int_retry_key_, i);
    for (std::uint64_t j = 0; static_cast<std::uint64_t>(m) < threshold;
         ++j) {
      m = static_cast<unsigned __int128>(word(sub, j)) * n;
    }
  }
  return static_cast<std::int64_t>(base + static_cast<std::uint64_t>(m >> 64));
}

bool Rng::bernoulli(double p) {
  check_bernoulli(p);
  return unit(word(key_, pos_++)) < p;
}

void Rng::fill_uniform(std::span<float> out, float lo, float hi) {
  check_uniform(lo, hi);
  const double width = static_cast<double>(hi) - static_cast<double>(lo);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = uniform_from(word(key_, pos_ + i), lo, hi, width);
  }
  pos_ += out.size();
}

void Rng::fill_gaussian(std::span<float> out, float mean, float stddev) {
  check_gaussian(stddev);
  const std::size_t n = out.size();
  std::size_t i = 0;
  // An odd start takes the second output of a pair begun by earlier draws.
  if (i < n && (pos_ & 1)) {
    out[i++] = scale_normal(normal_at(pos_++), mean, stddev);
  }
  for (; i + 2 <= n; i += 2, pos_ += 2) {
    double z[2];
    polar_pair(gauss_key_, gauss_retry_key_, pos_ >> 1, z);
    out[i] = scale_normal(z[0], mean, stddev);
    out[i + 1] = scale_normal(z[1], mean, stddev);
  }
  if (i < n) out[i] = scale_normal(normal_at(pos_++), mean, stddev);
}

void Rng::fill_bernoulli(std::span<float> out, double p, float on) {
  check_bernoulli(p);
  // A bit-mask select: a data-dependent branch would mispredict at p ~ 0.5.
  const auto on_bits = std::bit_cast<std::uint32_t>(on);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto hit = static_cast<std::uint32_t>(unit(word(key_, pos_ + i)) < p);
    out[i] = std::bit_cast<float>((0u - hit) & on_bits);
  }
  pos_ += out.size();
}

double Rng::normal_at(std::uint64_t pos) {
  const std::uint64_t k = pos >> 1;
  if (k != cached_pair_) {
    polar_pair(gauss_key_, gauss_retry_key_, k, pair_);
    cached_pair_ = k;
  }
  return pair_[pos & 1];
}

}  // namespace swcaffe::base
