#include "swgemm/reference.h"

#include <algorithm>
#include <vector>

#include "base/log.h"
#include "swgemm/tile.h"

namespace swcaffe::gemm {

namespace {

/// C += alpha * op(A) * B for NN and TN: packed-B register tiles. Each C
/// element gets l ascending, skipping av = alpha * A(i, l) == 0, exactly as
/// the i-l-j (NN) and l-i-j (TN) scalar loops did.
void gemm_xn(int m, int n, int k, float alpha, const float* a, std::size_t rs,
             std::size_t cs, const float* b, float* c) {
  if (m < kTileM) {
    // Too few rows for a tile: stream each B row once through all m C rows.
    for (int l = 0; l < k; ++l) {
      const float* bl = b + static_cast<std::size_t>(l) * n;
      for (int i = 0; i < m; ++i) {
        const float av = alpha * a[i * rs + l * cs];
        if (av == 0.0f) continue;
        float* ci = c + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) ci[j] += av * bl[j];
      }
    }
    return;
  }
  TileScratch& s = tile_scratch();
  for (int l0 = 0; l0 < k; l0 += kBlockK) {
    const int kc = std::min(kBlockK, k - l0);
    // The packed B block holds kBlockK x kBlockN floats; a short k widens
    // it, so C is swept in long row segments.
    const int block_n = std::max(kBlockN, kBlockK * kBlockN / kc / kTileN * kTileN);
    for (int j0 = 0; j0 < n; j0 += block_n) {
      const int nc = std::min(block_n, n - j0);
      const int panels = (nc + kTileN - 1) / kTileN;
      s.b.resize(static_cast<std::size_t>(panels) * kc * kTileN);
      for (int p = 0; p < panels; ++p) {
        const int cols = std::min(kTileN, nc - p * kTileN);
        float* bp = s.b.data() + static_cast<std::size_t>(p) * kc * kTileN;
        for (int l = 0; l < kc; ++l) {
          const float* bl = b + static_cast<std::size_t>(l0 + l) * n + j0 +
                            p * kTileN;
          float* dst = bp + static_cast<std::size_t>(l) * kTileN;
          int q = 0;
          for (; q < cols; ++q) dst[q] = bl[q];
          for (; q < kTileN; ++q) dst[q] = 0.0f;
        }
      }
      s.a.resize(static_cast<std::size_t>(kc) * kTileM);
      for (int i = 0; i < m; i += kTileM) {
        const int rows = std::min(kTileM, m - i);
        pack_tile_a(a, rs, cs, i, rows, l0, kc, alpha, s.a.data());
        for (int p = 0; p < panels; ++p) {
          tile_update(kc, s.a.data(),
                      s.b.data() + static_cast<std::size_t>(p) * kc * kTileN,
                      nullptr, c + static_cast<std::size_t>(i) * n + j0 +
                                   p * kTileN,
                      n, rows, std::min(kTileN, nc - p * kTileN));
        }
      }
    }
  }
}

/// NT kernel: rows of A dotted with rows of B. A panel of kTileN rows of B
/// is packed l-major; every dot product starts at 0.0f and runs l ascending,
/// then C += alpha * dot, as the scalar loop did.
void gemm_nt(int m, int n, int k, float alpha, const float* a, const float* b,
             float* c) {
  TileScratch& s = tile_scratch();
  s.b.resize(static_cast<std::size_t>(k) * kTileN);
  for (int j0 = 0; j0 < n; j0 += kTileN) {
    const int cols = std::min(kTileN, n - j0);
    // Padding lanes repeat row j0; their dots are computed and dropped.
    const float* bj[kTileN];
    for (int q = 0; q < kTileN; ++q) {
      bj[q] = b + static_cast<std::size_t>(j0 + (q < cols ? q : 0)) * k;
    }
    for (int l = 0; l < k; ++l) {
      float* dst = s.b.data() + static_cast<std::size_t>(l) * kTileN;
      for (int q = 0; q < kTileN; ++q) dst[q] = bj[q][l];
    }
    for (int i = 0; i < m; i += kTileM) {
      const int rows = std::min(kTileM, m - i);
      const float* a_rows[kTileM] = {};
      for (int r = 0; r < rows; ++r) {
        a_rows[r] = a + static_cast<std::size_t>(i + r) * k;
      }
      tile_dot(k, a_rows, s.b.data(), alpha,
               c + static_cast<std::size_t>(i) * n + j0, n, rows, cols);
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  SWC_CHECK_GE(m, 0);
  SWC_CHECK_GE(n, 0);
  SWC_CHECK_GE(k, 0);
  const std::size_t cn = static_cast<std::size_t>(m) * n;
  if (beta == 0.0f) {
    std::fill(c, c + cn, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < cn; ++i) c[i] *= beta;
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;

  if (!trans_a && !trans_b) {
    gemm_xn(m, n, k, alpha, a, k, 1, b, c);
  } else if (!trans_a && trans_b) {
    gemm_nt(m, n, k, alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    gemm_xn(m, n, k, alpha, a, 1, m, b, c);
  } else {
    // TT is rare; materialize op(B) = B^T (k x n) once and run the TN
    // kernel on it.
    std::vector<float> bt(static_cast<std::size_t>(k) * n);
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) {
        bt[static_cast<std::size_t>(l) * n + j] =
            b[static_cast<std::size_t>(j) * k + l];
      }
    }
    gemm_xn(m, n, k, alpha, a, 1, m, bt.data(), c);
  }
}

void sgemv(bool trans_a, int m, int n, float alpha, const float* a,
           const float* x, float beta, float* y) {
  const int out = trans_a ? n : m;
  if (beta == 0.0f) {
    std::fill(y, y + out, 0.0f);
  } else if (beta != 1.0f) {
    for (int i = 0; i < out; ++i) y[i] *= beta;
  }
  if (!trans_a) {
    for (int i = 0; i < m; ++i) {
      const float* ai = a + static_cast<std::size_t>(i) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += ai[j] * x[j];
      y[i] += alpha * acc;
    }
  } else {
    for (int i = 0; i < m; ++i) {
      const float* ai = a + static_cast<std::size_t>(i) * n;
      const float xv = alpha * x[i];
      if (xv == 0.0f) continue;
      for (int j = 0; j < n; ++j) y[j] += xv * ai[j];
    }
  }
}

}  // namespace swcaffe::gemm
