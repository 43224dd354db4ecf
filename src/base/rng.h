// Deterministic, portable random number generation.
//
// Every stochastic component in swCaffe (weight fillers, dropout masks,
// synthetic datasets, sampling) draws from an explicitly seeded Rng so that
// simulations and tests are bit-reproducible across runs, thread counts and
// standard libraries. The stream is counter-based: the value at stream
// position i is a pure function of (seed, i), computed from splitmix64 words
// by fixed IEEE transforms. DESIGN.md ("RNG contract") gives the layout.
#pragma once

#include <cstdint>
#include <span>

namespace swcaffe::base {

/// The splitmix64 increment (2^64 / golden ratio, rounded to odd).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 (Steele, Lea, Flood): one increment plus the 64-bit
/// multiply-xorshift finaliser. splitmix64(s + i * kSplitmixGamma) is output
/// i of the splitmix64 stream seeded with s, so any output is addressable.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded counter-based RNG with the distributions the framework needs. Each
/// draw consumes one stream position; a bulk fill of n values equals n scalar
/// draws from the same state. Preconditions are checked (base::CheckError).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1);

  /// Uniform float in [lo, hi); requires finite lo < hi.
  float uniform(float lo, float hi);

  /// Gaussian float; requires stddev >= 0.
  float gaussian(float mean, float stddev);

  /// Uniform integer in [lo, hi] inclusive, unbiased; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability `p` of returning true; p in [0, 1].
  bool bernoulli(double p);

  void fill_uniform(std::span<float> out, float lo, float hi);
  void fill_gaussian(std::span<float> out, float mean, float stddev);
  /// out[i] = bernoulli(p) ? on : 0.0f.
  void fill_bernoulli(std::span<float> out, double p, float on);

 private:
  /// Standard normal value at stream position `pos` (one of its pair's two).
  double normal_at(std::uint64_t pos);

  std::uint64_t key_;               ///< uniform / uniform_int / bernoulli words
  std::uint64_t gauss_key_;         ///< first attempt of each gaussian pair
  std::uint64_t gauss_retry_key_;   ///< per-pair sub-streams of retries
  std::uint64_t int_retry_key_;     ///< per-position uniform_int retries
  std::uint64_t pos_ = 0;           ///< position of the next draw
  std::uint64_t cached_pair_ = ~0ULL;  ///< pair whose outputs pair_ holds
  double pair_[2] = {0.0, 0.0};
};

}  // namespace swcaffe::base
