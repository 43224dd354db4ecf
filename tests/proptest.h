// Minimal property-based testing harness for the gtest suites.
//
// for_all(seed, cases, fn) runs `fn(rng, case_index)` for `cases`
// independently seeded cases; each case's Rng is derived from (seed, index)
// with splitmix64, so any failing case can be replayed in isolation by
// passing its index — the whole run is deterministic, no time or global
// state involved. A SCOPED_TRACE per case makes gtest failures name the
// (seed, case) pair that produced them.
//
// The Rng is intentionally tiny: uniform u64 / double / float helpers over
// the plain base::splitmix64 stream, which is statistically solid for
// test-input generation and identical on every toolchain.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/rng.h"

namespace swcaffe::proptest {

/// The splitmix64 stream seeded with `seed`; passes BigCrush.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    const std::uint64_t z = base::splitmix64(state_);
    state_ += base::kSplitmixGamma;
    return z;
  }

  /// Uniform in [0, bound) (bound 0 returns 0).
  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float next_float(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

 private:
  std::uint64_t state_;
};

/// Runs `fn(rng, i)` for i in [0, cases), each with an independently seeded
/// Rng. `fn` asserts its property with the usual EXPECT_*/ASSERT_* macros.
template <typename Fn>
void for_all(std::uint64_t seed, int cases, Fn&& fn) {
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("property case " + std::to_string(i) + " (seed " +
                 std::to_string(seed) + ")");
    // Derive the case seed through one splitmix64 step so consecutive case
    // indices do not produce overlapping draw sequences.
    Rng case_rng(Rng(seed + static_cast<std::uint64_t>(i)).next_u64());
    fn(case_rng, i);
  }
}

}  // namespace swcaffe::proptest
