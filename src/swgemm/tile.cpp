#include "swgemm/tile.h"

#include <cmath>
#include <cstring>

namespace swcaffe::gemm {

namespace {

// GCC/Clang vector extensions: one SSE register (NEON on AArch64). Element
// ops are plain IEEE single-precision ops, one rounding each.
typedef float v4f __attribute__((vector_size(16)));
typedef std::int32_t v4i __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }
inline v4f splat(float x) { return v4f{x, x, x, x}; }
inline v4f masked(v4f v, const std::int32_t* m) {
  v4i mi;
  std::memcpy(&mi, m, sizeof mi);
  return reinterpret_cast<v4f>(reinterpret_cast<v4i>(v) & mi);
}

template <bool kMasked>
void update_full(int kc, const float* ap, const float* bp,
                 const std::int32_t* mp, float* c, std::size_t ldc) {
  v4f acc[kTileM][2];
#pragma GCC unroll 4
  for (int r = 0; r < kTileM; ++r) {
    acc[r][0] = load4(c + r * ldc);
    acc[r][1] = load4(c + r * ldc + 4);
  }
  for (int l = 0; l < kc; ++l) {
    const float* av = ap + static_cast<std::size_t>(l) * kTileM;
    const float* bl = bp + static_cast<std::size_t>(l) * kTileN;
    const v4f b0 = load4(bl), b1 = load4(bl + 4);
#pragma GCC unroll 4
    for (int r = 0; r < kTileM; ++r) {
      const float x = av[r];
      if (x == 0.0f) continue;
      v4f p0 = splat(x) * b0, p1 = splat(x) * b1;
      if constexpr (kMasked) {
        if (!std::isfinite(x)) {
          const std::int32_t* ml = mp + static_cast<std::size_t>(l) * kTileN;
          p0 = masked(p0, ml);
          p1 = masked(p1, ml + 4);
        }
      }
      acc[r][0] += p0;
      acc[r][1] += p1;
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kTileM; ++r) {
    store4(c + r * ldc, acc[r][0]);
    store4(c + r * ldc + 4, acc[r][1]);
  }
}

void update_any(int kc, const float* ap, const float* bp,
                const std::int32_t* mp, float* c, std::size_t ldc) {
  if (mp != nullptr) {
    update_full<true>(kc, ap, bp, mp, c, ldc);
  } else {
    update_full<false>(kc, ap, bp, mp, c, ldc);
  }
}

template <int MR>
void dot_tile(int k, const float* const* a_rows, const float* bp, float alpha,
              float* c, std::size_t ldc, int cols) {
  v4f acc[MR][2] = {};
  for (int l = 0; l < k; ++l) {
    const float* bl = bp + static_cast<std::size_t>(l) * kTileN;
    const v4f b0 = load4(bl), b1 = load4(bl + 4);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const v4f x = splat(a_rows[r][l]);
      acc[r][0] += x * b0;
      acc[r][1] += x * b1;
    }
  }
  const v4f va = splat(alpha);
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    if (cols == kTileN) {
      store4(cr, load4(cr) + va * acc[r][0]);
      store4(cr + 4, load4(cr + 4) + va * acc[r][1]);
    } else {
      float t[kTileN];
      store4(t, va * acc[r][0]);
      store4(t + 4, va * acc[r][1]);
      for (int q = 0; q < cols; ++q) cr[q] += t[q];
    }
  }
}

}  // namespace

TileScratch& tile_scratch() {
  thread_local TileScratch s;
  return s;
}

void pack_tile_a(const float* a, std::size_t rs, std::size_t cs, int i,
                 int rows, int l0, int kc, float alpha, float* ap) {
  for (int l = 0; l < kc; ++l) {
    const float* al = a + static_cast<std::size_t>(l0 + l) * cs;
    float* dst = ap + static_cast<std::size_t>(l) * kTileM;
    int r = 0;
    for (; r < rows; ++r) dst[r] = alpha * al[(i + r) * rs];
    for (; r < kTileM; ++r) dst[r] = 0.0f;
  }
}

void tile_update(int kc, const float* ap, const float* bp,
                 const std::int32_t* mp, float* c, std::size_t ldc, int rows,
                 int cols) {
  if (rows == kTileM && cols == kTileN) {
    update_any(kc, ap, bp, mp, c, ldc);
    return;
  }
  // Edge tile: run the full tile on a copy; lanes outside rows x cols see
  // zero-padded operands and are never stored.
  float t[kTileM * kTileN] = {};
  for (int r = 0; r < rows; ++r) {
    std::memcpy(t + r * kTileN, c + r * ldc, cols * sizeof(float));
  }
  update_any(kc, ap, bp, mp, t, kTileN);
  for (int r = 0; r < rows; ++r) {
    std::memcpy(c + r * ldc, t + r * kTileN, cols * sizeof(float));
  }
}

void tile_dot(int k, const float* const* a_rows, const float* bp, float alpha,
              float* c, std::size_t ldc, int rows, int cols) {
  switch (rows) {
    case 1:
      dot_tile<1>(k, a_rows, bp, alpha, c, ldc, cols);
      break;
    case 2:
      dot_tile<2>(k, a_rows, bp, alpha, c, ldc, cols);
      break;
    case 3:
      dot_tile<3>(k, a_rows, bp, alpha, c, ldc, cols);
      break;
    default:
      dot_tile<kTileM>(k, a_rows, bp, alpha, c, ldc, cols);
  }
}

}  // namespace swcaffe::gemm
