#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "hw/chip.h"
#include "oracle.h"
#include "swgemm/estimate.h"
#include "swgemm/mesh_gemm.h"
#include "swgemm/reference.h"

namespace swcaffe::gemm {
namespace {

/// Obviously-correct triple loop used as the oracle for sgemm.
void naive_gemm(bool ta, bool tb, int m, int n, int k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int l = 0; l < k; ++l) {
        const float av = ta ? a[l * m + i] : a[i * k + l];
        const float bv = tb ? b[j * k + l] : b[l * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

std::vector<float> random_vec(std::size_t n, base::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

class SgemmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(SgemmTransposeTest, MatchesNaiveOracle) {
  const auto [ta, tb] = GetParam();
  base::Rng rng(17);
  const int m = 13, n = 9, k = 21;
  auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  auto c = random_vec(static_cast<std::size_t>(m) * n, rng);
  auto expected = c;
  naive_gemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, expected.data());
  sgemm(ta, tb, m, n, k, 0.7f, a.data(), b.data(), 0.3f, c.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposeModes, SgemmTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(SgemmTest, BetaZeroOverwritesGarbage) {
  const int m = 2, n = 2, k = 2;
  std::vector<float> a{1, 0, 0, 1}, b{5, 6, 7, 8};
  std::vector<float> c(4, std::numeric_limits<float>::quiet_NaN());
  sgemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(SgemmTest, DegenerateDimsAreNoOps) {
  std::vector<float> c{1.0f};
  sgemm(false, false, 1, 1, 0, 1.0f, nullptr, nullptr, 1.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(SgemvTest, MatchesGemm) {
  base::Rng rng(23);
  const int m = 7, n = 11;
  auto a = random_vec(static_cast<std::size_t>(m) * n, rng);
  auto x = random_vec(n, rng);
  std::vector<float> y1(m, 0.0f), y2(m, 0.0f);
  sgemv(false, m, n, 1.0f, a.data(), x.data(), 0.0f, y1.data());
  sgemm(false, false, m, 1, n, 1.0f, a.data(), x.data(), 0.0f, y2.data());
  for (int i = 0; i < m; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-5f);
  // Transposed variant.
  auto xt = random_vec(m, rng);
  std::vector<float> yt(n, 0.0f), expected(n, 0.0f);
  sgemv(true, m, n, 1.0f, a.data(), xt.data(), 0.0f, yt.data());
  naive_gemm(true, false, n, 1, m, 1.0f, a.data(), xt.data(), 0.0f,
             expected.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(yt[i], expected[i], 1e-5f);
}

TEST(SgemvTest, BetaZeroOverwritesGarbage) {
  // BLAS semantics, as sgemm: beta == 0 never reads y, so NaN does not
  // survive (0 * NaN would).
  const std::vector<float> a{1, 2, 3, 4, 5, 6};  // 2 x 3
  const std::vector<float> x{1, 1, 1};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> y(2, nan);
  sgemv(false, 2, 3, 1.0f, a.data(), x.data(), 0.0f, y.data());
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);
  std::vector<float> yt(3, nan);
  sgemv(true, 2, 3, 1.0f, a.data(), x.data(), 0.0f, yt.data());
  EXPECT_FLOAT_EQ(yt[0], 5.0f);
  EXPECT_FLOAT_EQ(yt[2], 9.0f);
}

// --- Same-order oracle -----------------------------------------------------------
//
// The scalar loops sgemm ran before its kernels were register-tiled, copied
// verbatim. The tiled kernels promise each element of C exactly the additions
// these loops make, in the same order, so they must agree bit for bit on any
// input — signed zeros, denormals, infinities and NaN included (only NaN
// payloads may differ).
namespace order_oracle {

/// NN kernel with i-l-j loop order (streams B rows, C rows stay hot).
void gemm_nn(int m, int n, int k, float alpha, const float* a, const float* b,
             float* c) {
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::size_t>(i) * n;
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (int l = 0; l < k; ++l) {
      const float av = alpha * ai[l];
      if (av == 0.0f) continue;
      const float* bl = b + static_cast<std::size_t>(l) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bl[j];
    }
  }
}

/// NT kernel: rows of A dotted with rows of B.
void gemm_nt(int m, int n, int k, float alpha, const float* a, const float* b,
             float* c) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    float* ci = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int l = 0; l < k; ++l) acc += ai[l] * bj[l];
      ci[j] += alpha * acc;
    }
  }
}

/// TN kernel: columns of A (rows of A^T) times rows of B.
void gemm_tn(int m, int n, int k, float alpha, const float* a, const float* b,
             float* c) {
  for (int l = 0; l < k; ++l) {
    const float* al = a + static_cast<std::size_t>(l) * m;
    const float* bl = b + static_cast<std::size_t>(l) * n;
    for (int i = 0; i < m; ++i) {
      const float av = alpha * al[i];
      if (av == 0.0f) continue;
      float* ci = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bl[j];
    }
  }
}

void sgemm(bool trans_a, bool trans_b, int m, int n, int k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  const std::size_t cn = static_cast<std::size_t>(m) * n;
  if (beta == 0.0f) {
    std::fill(c, c + cn, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < cn; ++i) c[i] *= beta;
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;

  if (!trans_a && !trans_b) {
    gemm_nn(m, n, k, alpha, a, b, c);
  } else if (!trans_a && trans_b) {
    gemm_nt(m, n, k, alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    gemm_tn(m, n, k, alpha, a, b, c);
  } else {
    std::vector<float> bt(static_cast<std::size_t>(k) * n);
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) {
        bt[static_cast<std::size_t>(l) * n + j] =
            b[static_cast<std::size_t>(j) * k + l];
      }
    }
    gemm_tn(m, n, k, alpha, a, bt.data(), c);
  }
}

}  // namespace order_oracle

/// Runs sgemm and the oracle on the same operands; true when bitwise equal.
::testing::AssertionResult sgemm_matches_oracle(bool ta, bool tb, int m, int n,
                                                int k, float alpha, float beta,
                                                base::Rng& rng,
                                                double nonfinite_rate) {
  const auto a = oracle::special_vec(static_cast<std::size_t>(m) * k, rng,
                                     nonfinite_rate);
  const auto b = oracle::special_vec(static_cast<std::size_t>(k) * n, rng,
                                     nonfinite_rate);
  auto c = oracle::special_vec(static_cast<std::size_t>(m) * n, rng,
                               nonfinite_rate);
  auto want = c;
  order_oracle::sgemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                      want.data());
  sgemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c.data());
  const long bad = oracle::first_bit_mismatch(c, want);
  if (bad < 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
         << " k=" << k << " alpha=" << alpha << " beta=" << beta
         << ": C[" << bad << "] = " << c[bad] << ", oracle " << want[bad];
}

class SgemmOrderTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(SgemmOrderTest, RandomShapesMatchOracleBitForBit) {
  // Shapes in 1..70 land on every edge tile of every kernel.
  const auto [ta, tb] = GetParam();
  base::Rng rng(91 + 2 * ta + tb);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 70));
    const int n = static_cast<int>(rng.uniform_int(1, 70));
    const int k = static_cast<int>(rng.uniform_int(1, 70));
    for (float alpha : {1.0f, 0.7f, -2.0f}) {
      for (float beta : {0.0f, 1.0f, 0.3f}) {
        ASSERT_TRUE(
            sgemm_matches_oracle(ta, tb, m, n, k, alpha, beta, rng, 0.01));
      }
    }
  }
}

TEST_P(SgemmOrderTest, AlexNetHotShapesMatchOracleBitForBit) {
  // The shapes the reduced AlexNet-BN trainer spends its time in: conv
  // weight gradients (k = 9 or 49 output positions), conv input gradients
  // and the fc7 passes at batch 2.
  const auto [ta, tb] = GetParam();
  base::Rng rng(97 + 2 * ta + tb);
  const std::tuple<int, int, int> shapes[] = {
      {384, 3456, 9}, {3456, 9, 384}, {256, 2400, 49},
      {2, 4096, 4096}, {4096, 4096, 2}};
  const std::pair<float, float> alpha_beta[] = {
      {1.0f, 0.0f}, {0.7f, 1.0f}, {-2.0f, 0.3f}};
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    const auto [m, n, k] = shapes[s];
    const auto [alpha, beta] = alpha_beta[s % std::size(alpha_beta)];
    // A handful of non-finite values per matrix, so most outputs stay finite.
    ASSERT_TRUE(sgemm_matches_oracle(ta, tb, m, n, k, alpha, beta, rng, 2e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposeModes, SgemmOrderTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// --- Mesh GEMM -----------------------------------------------------------------

class MeshGemmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MeshGemmTest, MatchesReferenceAndTouchesMemoryOnce) {
  const auto [m, n, k] = GetParam();
  base::Rng rng(31);
  std::vector<double> a(static_cast<std::size_t>(m) * k),
      b(static_cast<std::size_t>(k) * n), c(static_cast<std::size_t>(m) * n),
      expected;
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : c) v = rng.uniform(-1, 1);
  expected = c;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int l = 0; l < k; ++l) acc += a[i * k + l] * b[l * n + j];
      expected[i * n + j] += acc;
    }
  }

  hw::CoreGroup cg{hw::HwParams{}};
  const MeshGemmStats stats = mesh_gemm(cg, a, b, c, m, n, k);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-9) << i;
  }

  // Optimality invariant (Sec. IV-A): A, B and C each cross the memory bus
  // exactly once.
  const std::size_t abc_bytes = (a.size() + b.size() + c.size()) * 8;
  EXPECT_EQ(stats.ledger.dma_get_bytes, abc_bytes);
  EXPECT_EQ(stats.ledger.dma_put_bytes, c.size() * 8);
  EXPECT_DOUBLE_EQ(stats.ledger.flops, 2.0 * m * n * k);
  EXPECT_GT(stats.ledger.elapsed_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshGemmTest,
                         ::testing::Values(std::make_tuple(8, 8, 8),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(32, 8, 16),
                                           std::make_tuple(8, 40, 24),
                                           std::make_tuple(64, 64, 64),
                                           std::make_tuple(128, 64, 32)));

TEST(MeshGemmTest, RejectsNonMeshDivisibleDims) {
  hw::CoreGroup cg{hw::HwParams{}};
  std::vector<double> a(9 * 8), b(8 * 8), c(9 * 8);
  EXPECT_THROW(mesh_gemm(cg, a, b, c, 9, 8, 8), base::CheckError);
}

TEST(MeshGemmTest, RejectsTilesExceedingLdm) {
  hw::CoreGroup cg{hw::HwParams{}};
  // 1024^2 doubles per tile-row: (128*128)*3*8 = 384 KB per CPE >> 64 KB.
  const int d = 1024;
  std::vector<double> a(static_cast<std::size_t>(d) * d),
      b(static_cast<std::size_t>(d) * d), c(static_cast<std::size_t>(d) * d);
  EXPECT_THROW(mesh_gemm(cg, a, b, c, d, d, d), base::CheckError);
}

TEST(MeshGemmTest, RlcVolumeMatchesAlgorithm) {
  // Each of 8 steps broadcasts 8 A-tiles to 7 peers and 8 B-tiles to 7
  // peers: total RLC bytes = 7 * 8 * 8 * (tileA + tileB).
  const int m = 16, n = 16, k = 16;
  std::vector<double> a(m * k, 1.0), b(k * n, 1.0), c(m * n, 0.0);
  hw::CoreGroup cg{hw::HwParams{}};
  const MeshGemmStats stats = mesh_gemm(cg, a, b, c, m, n, k);
  const std::size_t tile_a = (m / 8) * (k / 8) * 8, tile_b = (k / 8) * (n / 8) * 8;
  EXPECT_EQ(stats.ledger.rlc_bytes, 7u * 8u * 8u * (tile_a + tile_b));
}

/// Arbitrary-size blocked driver vs the double-precision oracle.
class BlockedMeshGemmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedMeshGemmTest, MatchesReference) {
  const auto [m, n, k] = GetParam();
  base::Rng rng(37);
  std::vector<double> a(static_cast<std::size_t>(m) * k),
      b(static_cast<std::size_t>(k) * n), c(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : c) v = rng.uniform(-1, 1);
  auto expected = c;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int l = 0; l < k; ++l) acc += a[i * k + l] * b[l * n + j];
      expected[static_cast<std::size_t>(i) * n + j] += acc;
    }
  }
  hw::CoreGroup cg{hw::HwParams{}};
  const MeshGemmStats stats = blocked_mesh_gemm(cg, a, b, c, m, n, k);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], expected[i], 1e-9) << i;
  }
  // Padded panels may add zero-flops, but never less than the true count.
  EXPECT_GE(stats.ledger.flops, 2.0 * m * n * k - 1.0);
  EXPECT_GT(stats.ledger.elapsed_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, BlockedMeshGemmTest,
    ::testing::Values(std::make_tuple(100, 70, 130),   // nothing divides 8
                      std::make_tuple(256, 256, 256),  // exactly one panel
                      std::make_tuple(300, 8, 520),    // skinny n
                      std::make_tuple(7, 7, 7),        // smaller than mesh
                      std::make_tuple(257, 300, 40))); // panel boundary +1

TEST(BlockedMeshGemmTest, LargePanelsTouchABOncePerReuse) {
  // One C panel (m,n <= 256): A and B panels stream exactly once regardless
  // of k blocking, C exactly once — the LDM-residency invariant.
  const int m = 64, n = 64, k = 512;  // two k panels
  std::vector<double> a(static_cast<std::size_t>(m) * k, 1.0),
      b(static_cast<std::size_t>(k) * n, 1.0),
      c(static_cast<std::size_t>(m) * n, 0.0);
  hw::CoreGroup cg{hw::HwParams{}};
  const MeshGemmStats stats = blocked_mesh_gemm(cg, a, b, c, m, n, k);
  // Each k panel loads A, B and the resident C; C write happens per panel in
  // the per-panel kernel (the blocked driver re-feeds it), so get traffic is
  // A + B + 2 * C reads and puts are 2 * C.
  const std::size_t a_bytes = a.size() * 8, b_bytes = b.size() * 8,
                    c_bytes = c.size() * 8;
  EXPECT_EQ(stats.ledger.dma_get_bytes, a_bytes + b_bytes + 2 * c_bytes);
  EXPECT_EQ(stats.ledger.dma_put_bytes, 2 * c_bytes);
}

TEST(MaxMeshBlockTest, FitsLdmWithDoubleBuffering) {
  hw::HwParams hp;
  const int l = max_mesh_block(hp);
  EXPECT_GE(l, 128);
  const std::size_t tile = static_cast<std::size_t>(l / 8) * (l / 8);
  EXPECT_LE(3 * tile * sizeof(double) * 2, hp.ldm_bytes);
}

// --- Analytic estimates ----------------------------------------------------------

TEST(GemmEstimateTest, MoreWorkTakesLonger) {
  hw::CostModel cost;
  const auto small = estimate_gemm(cost, 256, 256, 256);
  const auto big = estimate_gemm(cost, 1024, 1024, 1024);
  EXPECT_GT(big.seconds, small.seconds);
  EXPECT_DOUBLE_EQ(big.flops, 2.0 * 1024 * 1024 * 1024);
}

TEST(GemmEstimateTest, LargeSquareGemmIsComputeBound) {
  hw::CostModel cost;
  // Paper Sec. VI-A: GEMM needs m > ~160 to be compute-bound on SW26010.
  const auto est = estimate_gemm(cost, 2048, 2048, 2048);
  EXPECT_GT(est.compute_seconds, est.dma_seconds);
  EXPECT_GT(est.achieved_gflops, 300.0);
}

TEST(GemmEstimateTest, SkinnyKCollapsesBandwidth) {
  hw::CostModel cost;
  // k = 27 (conv1 of VGG): short DMA runs, memory bound.
  const auto skinny = estimate_gemm(cost, 64, 4096, 27);
  const auto square = estimate_gemm(cost, 512, 512, 512);
  EXPECT_LT(skinny.achieved_gflops, square.achieved_gflops);
}

TEST(GemmEstimateTest, NoRlcCosts8xDma) {
  hw::CostModel cost;
  const auto rlc = estimate_gemm(cost, 1024, 1024, 1024);
  const auto no_rlc = estimate_gemm_no_rlc(cost, 1024, 1024, 1024);
  EXPECT_NEAR(static_cast<double>(no_rlc.dma_bytes) / rlc.dma_bytes, 8.0, 0.6);
  EXPECT_GT(no_rlc.seconds, rlc.seconds);
}

TEST(GemmEstimateTest, RejectsNonPositiveDims) {
  hw::CostModel cost;
  EXPECT_THROW(estimate_gemm(cost, 0, 4, 4), base::CheckError);
}

/// Property sweep: the estimate must be physically sane on a wide grid —
/// positive, below peak, monotone in total work along each axis.
class GemmEstimateSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmEstimateSweepTest, PhysicallySane) {
  const auto [m, n, k] = GetParam();
  hw::CostModel cost;
  const auto est = estimate_gemm(cost, m, n, k);
  EXPECT_GT(est.seconds, 0.0);
  EXPECT_GT(est.achieved_gflops, 0.0);
  // Cannot exceed the machine: 742.4 Gflops DP peak per core group.
  EXPECT_LE(est.achieved_gflops, 742.4 * (1 + 1e-9));
  // Growing any one dimension never makes the problem faster.
  EXPECT_GE(estimate_gemm(cost, 2 * m, n, k).seconds, est.seconds);
  EXPECT_GE(estimate_gemm(cost, m, 2 * n, k).seconds, est.seconds);
  EXPECT_GE(estimate_gemm(cost, m, n, 2 * k).seconds, est.seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmEstimateSweepTest,
    ::testing::Combine(::testing::Values(8, 64, 512, 3000),
                       ::testing::Values(8, 196, 4096),
                       ::testing::Values(27, 256, 2048)));

}  // namespace
}  // namespace swcaffe::gemm
