#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "core/layer_desc.h"
#include "oracle.h"
#include "swdnn/conv_func.h"
#include "swdnn/im2col.h"
#include "swdnn/mem_plans.h"

namespace swcaffe::dnn {
namespace {

core::ConvGeom make_geom(int batch, int in_c, int out_c, int img, int kernel,
                         int stride, int pad) {
  core::ConvGeom g;
  g.batch = batch;
  g.in_c = in_c;
  g.out_c = out_c;
  g.in_h = g.in_w = img;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

std::vector<float> random_vec(std::size_t n, base::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

TEST(Im2colTest, IdentityKernelCopiesImage) {
  // K=1, S=1, pad=0: the column matrix IS the image.
  auto g = make_geom(1, 2, 1, 4, 1, 1, 0);
  std::vector<float> img(2 * 4 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(img.size(), -1.0f);
  im2col(img.data(), g, col.data());
  EXPECT_EQ(col, img);
}

TEST(Im2colTest, PaddingProducesZeroBorder) {
  auto g = make_geom(1, 1, 1, 2, 3, 1, 1);  // 2x2 image, 3x3 kernel, pad 1
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> col(9 * 4, -1.0f);
  im2col(img.data(), g, col.data());
  // First kernel position (kh=0, kw=0) reads the upper-left padded corner:
  // outputs are [pad, pad, pad, img(0,0)].
  EXPECT_EQ(col[0], 0.0f);
  EXPECT_EQ(col[1], 0.0f);
  EXPECT_EQ(col[2], 0.0f);
  EXPECT_EQ(col[3], 1.0f);
  // Center position (kh=1, kw=1) reads the image itself.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
}

TEST(Im2colTest, Col2imIsAdjoint) {
  // <u, im2col(x)> == <col2im(u), x> for random u, x — the defining property
  // of the reverse data movement (Fig. 4 right).
  base::Rng rng(41);
  auto g = make_geom(1, 3, 1, 7, 3, 2, 1);
  const std::size_t img_n = 3 * 7 * 7;
  const std::size_t col_n =
      static_cast<std::size_t>(3 * 9) * g.out_h() * g.out_w();
  auto x = random_vec(img_n, rng);
  auto u = random_vec(col_n, rng);
  std::vector<float> col(col_n, 0.0f), back(img_n, 0.0f);
  im2col(x.data(), g, col.data());
  col2im(u.data(), g, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) lhs += double(u[i]) * col[i];
  for (std::size_t i = 0; i < img_n; ++i) rhs += double(back[i]) * x[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

/// Geometry sweep: explicit (im2col+GEMM) and implicit (direct) forward
/// passes must agree exactly — the paper's two plans compute one function.
class ConvEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int>> {
};

TEST_P(ConvEquivalenceTest, ExplicitEqualsImplicit) {
  const auto [in_c, out_c, img, kernel, stride, pad] = GetParam();
  auto g = make_geom(2, in_c, out_c, img, kernel, stride, pad);
  base::Rng rng(43);
  auto bottom = random_vec(static_cast<std::size_t>(g.batch) * g.input_count() /
                               g.batch,
                           rng);
  bottom = random_vec(static_cast<std::size_t>(g.input_count()), rng);
  auto weight = random_vec(static_cast<std::size_t>(g.weight_count()), rng);
  auto bias = random_vec(static_cast<std::size_t>(g.out_c), rng);
  std::vector<float> top_e(g.output_count()), top_i(g.output_count());
  conv_forward_explicit(g, bottom.data(), weight.data(), bias.data(),
                        top_e.data());
  conv_forward_implicit(g, bottom.data(), weight.data(), bias.data(),
                        top_i.data());
  for (std::size_t i = 0; i < top_e.size(); ++i) {
    EXPECT_NEAR(top_e[i], top_i[i], 1e-4f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvEquivalenceTest,
    ::testing::Values(std::make_tuple(3, 8, 8, 3, 1, 1),
                      std::make_tuple(4, 4, 9, 3, 2, 1),
                      std::make_tuple(2, 6, 11, 5, 2, 2),
                      std::make_tuple(8, 8, 6, 1, 1, 0),
                      std::make_tuple(1, 2, 12, 7, 3, 3),
                      std::make_tuple(5, 3, 8, 2, 2, 0)));

TEST(ConvBackwardTest, WeightGradientMatchesFiniteDifference) {
  auto g = make_geom(1, 2, 3, 5, 3, 1, 1);
  base::Rng rng(47);
  auto bottom = random_vec(g.input_count(), rng);
  auto weight = random_vec(g.weight_count(), rng);
  auto top_diff = random_vec(g.output_count(), rng);

  std::vector<float> wdiff(g.weight_count(), 0.0f), bdiff(g.out_c, 0.0f);
  conv_backward_weight(g, bottom.data(), top_diff.data(), wdiff.data(),
                       bdiff.data());

  // Scalar objective J = <top_diff, conv(bottom, weight)>; dJ/dW must match.
  auto objective = [&](const std::vector<float>& w) {
    std::vector<float> top(g.output_count());
    conv_forward_explicit(g, bottom.data(), w.data(), nullptr, top.data());
    double j = 0.0;
    for (std::size_t i = 0; i < top.size(); ++i) {
      j += static_cast<double>(top_diff[i]) * top[i];
    }
    return j;
  };
  const float eps = 1e-2f;
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, wdiff.size() - 1}) {
    auto wp = weight, wm = weight;
    wp[i] += eps;
    wm[i] -= eps;
    const double numeric = (objective(wp) - objective(wm)) / (2.0 * eps);
    EXPECT_NEAR(wdiff[i], numeric, 5e-2) << "weight index " << i;
  }
}

TEST(ConvBackwardTest, InputGradientMatchesFiniteDifference) {
  auto g = make_geom(1, 2, 2, 6, 3, 2, 1);
  base::Rng rng(53);
  auto bottom = random_vec(g.input_count(), rng);
  auto weight = random_vec(g.weight_count(), rng);
  auto top_diff = random_vec(g.output_count(), rng);

  std::vector<float> bdiff(g.input_count(), 0.0f);
  conv_backward_input(g, weight.data(), top_diff.data(), bdiff.data());

  auto objective = [&](const std::vector<float>& in) {
    std::vector<float> top(g.output_count());
    conv_forward_implicit(g, in.data(), weight.data(), nullptr, top.data());
    double j = 0.0;
    for (std::size_t i = 0; i < top.size(); ++i) {
      j += static_cast<double>(top_diff[i]) * top[i];
    }
    return j;
  };
  const float eps = 1e-2f;
  for (std::size_t i : {std::size_t{0}, std::size_t{31}, bdiff.size() - 1}) {
    auto ip = bottom, im = bottom;
    ip[i] += eps;
    im[i] -= eps;
    const double numeric = (objective(ip) - objective(im)) / (2.0 * eps);
    EXPECT_NEAR(bdiff[i], numeric, 5e-2) << "input index " << i;
  }
}

TEST(ConvBackwardTest, BiasGradientIsPerChannelSum) {
  auto g = make_geom(2, 1, 2, 4, 3, 1, 1);
  base::Rng rng(59);
  auto bottom = random_vec(g.input_count(), rng);
  auto top_diff = random_vec(g.output_count(), rng);
  std::vector<float> wdiff(g.weight_count(), 0.0f), bdiff(g.out_c, 0.0f);
  conv_backward_weight(g, bottom.data(), top_diff.data(), wdiff.data(),
                       bdiff.data());
  const int plane = g.out_h() * g.out_w();
  for (int c = 0; c < g.out_c; ++c) {
    double expected = 0.0;
    for (int b = 0; b < g.batch; ++b) {
      for (int i = 0; i < plane; ++i) {
        expected += top_diff[(b * g.out_c + c) * plane + i];
      }
    }
    EXPECT_NEAR(bdiff[c], expected, 1e-4);
  }
}

// --- Same-order oracle ----------------------------------------------------------
//
// conv_forward_implicit as it was before the register-tiled kernel, copied
// verbatim. The tiled kernel promises every output exactly the additions this
// loop makes, in the same order (clipped taps contribute a masked +0), so the
// two must agree bit for bit on any input — signed zeros, denormals,
// infinities and NaN included (only NaN payloads may differ).
namespace order_oracle {

struct GroupView {
  core::ConvGeom sub;           // per-group geometry, batch = 1
  std::size_t in_stride;        // one group's input floats
  std::size_t out_stride;       // one group's output floats
  std::size_t w_stride;         // one group's weight floats
  std::size_t in_img, out_img;  // full-image strides
};

GroupView group_view(const core::ConvGeom& g) {
  GroupView v;
  v.sub = g.per_group();
  v.sub.batch = 1;
  v.in_stride = static_cast<std::size_t>(v.sub.in_c) * g.in_h * g.in_w;
  v.out_stride = static_cast<std::size_t>(v.sub.out_c) * g.out_h() * g.out_w();
  v.w_stride = static_cast<std::size_t>(v.sub.out_c) * v.sub.in_c * g.kernel *
               g.kernel;
  v.in_img = v.in_stride * g.group;
  v.out_img = v.out_stride * g.group;
  return v;
}

void conv_forward_implicit(const core::ConvGeom& g, const float* bottom,
                           const float* weight, const float* bias, float* top) {
  if (g.group > 1) {
    const GroupView v = group_view(g);
    for (int b = 0; b < g.batch; ++b) {
      for (int gp = 0; gp < g.group; ++gp) {
        conv_forward_implicit(
            v.sub, bottom + b * v.in_img + gp * v.in_stride,
            weight + gp * v.w_stride,
            bias != nullptr ? bias + gp * v.sub.out_c : nullptr,
            top + b * v.out_img + gp * v.out_stride);
      }
    }
    return;
  }
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t in_img = static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_img = static_cast<std::size_t>(g.out_c) * oh * ow;
  std::fill(top, top + static_cast<std::size_t>(g.batch) * out_img, 0.0f);
  for (int b = 0; b < g.batch; ++b) {
    const float* in = bottom + b * in_img;
    float* out = top + b * out_img;
    for (int no = 0; no < g.out_c; ++no) {
      float* oplane = out + static_cast<std::size_t>(no) * oh * ow;
      for (int ni = 0; ni < g.in_c; ++ni) {
        const float* iplane = in + static_cast<std::size_t>(ni) * g.in_h * g.in_w;
        const float* w = weight + ((static_cast<std::size_t>(no) * g.in_c + ni) *
                                   g.kernel * g.kernel);
        for (int kh = 0; kh < g.kernel; ++kh) {
          for (int kw = 0; kw < g.kernel; ++kw) {
            const float wv = w[kh * g.kernel + kw];
            if (wv == 0.0f) continue;
            // Coordinate-mapped padding (Sec. IV-B2): clip the output range
            // so no explicitly padded input is ever touched.
            for (int y = 0; y < oh; ++y) {
              const int sy = y * g.stride + kh - g.pad;
              if (sy < 0 || sy >= g.in_h) continue;
              const float* irow = iplane + static_cast<std::size_t>(sy) * g.in_w;
              float* orow = oplane + static_cast<std::size_t>(y) * ow;
              for (int x = 0; x < ow; ++x) {
                const int sx = x * g.stride + kw - g.pad;
                if (sx < 0 || sx >= g.in_w) continue;
                orow[x] += wv * irow[sx];
              }
            }
          }
        }
      }
      if (bias != nullptr) {
        for (int i = 0; i < oh * ow; ++i) oplane[i] += bias[no];
      }
    }
  }
}

}  // namespace order_oracle

/// Runs the implicit forward and the oracle on the same operands; true when
/// bitwise equal.
::testing::AssertionResult implicit_matches_oracle(const core::ConvGeom& g,
                                                   bool with_bias,
                                                   base::Rng& rng,
                                                   double nonfinite_rate) {
  const auto bottom = oracle::special_vec(
      static_cast<std::size_t>(g.input_count()), rng, nonfinite_rate);
  const auto weight = oracle::special_vec(
      static_cast<std::size_t>(g.weight_count()), rng, nonfinite_rate);
  const auto bias = oracle::special_vec(static_cast<std::size_t>(g.out_c),
                                        rng, nonfinite_rate);
  const float* b = with_bias ? bias.data() : nullptr;
  std::vector<float> got(g.output_count(), 1.0f), want(g.output_count());
  order_oracle::conv_forward_implicit(g, bottom.data(), weight.data(), b,
                                      want.data());
  conv_forward_implicit(g, bottom.data(), weight.data(), b, got.data());
  const long bad = oracle::first_bit_mismatch(got, want);
  if (bad < 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "batch=" << g.batch << " in_c=" << g.in_c << " out_c=" << g.out_c
         << " img=" << g.in_h << "x" << g.in_w << " k=" << g.kernel
         << " s=" << g.stride << " p=" << g.pad << " group=" << g.group
         << " bias=" << with_bias << ": top[" << bad << "] = " << got[bad]
         << ", oracle " << want[bad];
}

TEST(ConvOrderTest, AlexNetBnLayersAt67PxMatchOracleBitForBit) {
  // conv1..conv5 of the reduced AlexNet-BN the trainer runs (67 px, batch 2).
  base::Rng rng(61);
  const core::ConvGeom layers[] = {
      make_geom(2, 3, 96, 67, 11, 4, 0), make_geom(2, 96, 256, 7, 5, 1, 2),
      make_geom(2, 256, 384, 3, 3, 1, 1), make_geom(2, 384, 384, 3, 3, 1, 1),
      make_geom(2, 384, 256, 3, 3, 1, 1)};
  for (const auto& g : layers) {
    // A handful of non-finite values per tensor, so most outputs stay finite.
    ASSERT_TRUE(implicit_matches_oracle(g, true, rng, 2e-6));
    ASSERT_TRUE(implicit_matches_oracle(g, false, rng, 0.0));
  }
}

TEST(ConvOrderTest, RandomGeometriesMatchOracleBitForBit) {
  // Random stride, pad and group, so clipped taps fall on every tile edge.
  base::Rng rng(67);
  for (int trial = 0; trial < 200; ++trial) {
    const int group = static_cast<int>(rng.uniform_int(1, 3));
    const int kernel = static_cast<int>(rng.uniform_int(1, 5));
    auto g = make_geom(static_cast<int>(rng.uniform_int(1, 3)),
                       group * static_cast<int>(rng.uniform_int(1, 4)),
                       group * static_cast<int>(rng.uniform_int(1, 11)),
                       static_cast<int>(rng.uniform_int(kernel, 13)), kernel,
                       static_cast<int>(rng.uniform_int(1, 3)),
                       static_cast<int>(rng.uniform_int(0, kernel - 1)));
    g.in_w = static_cast<int>(rng.uniform_int(kernel, 13));
    g.group = group;
    ASSERT_TRUE(implicit_matches_oracle(g, trial % 2 == 0, rng, 0.01));
  }
}

// --- Memory plans ---------------------------------------------------------------

TEST(MemPlansTest, StreamTimeScalesWithBytes) {
  hw::CostModel cost;
  EXPECT_NEAR(stream_time(cost, 2e9, 4096) / stream_time(cost, 1e9, 4096), 2.0,
              1e-6);
}

TEST(MemPlansTest, ShortRunsAreSlower) {
  hw::CostModel cost;
  EXPECT_GT(stream_time(cost, 1e9, 16), stream_time(cost, 1e9, 8192));
}

TEST(MemPlansTest, PoolBackwardCostsMoreThanForward) {
  hw::CostModel cost;
  core::PoolGeom g;
  g.batch = 64;
  g.channels = 96;
  g.in_h = g.in_w = 55;
  g.kernel = 3;
  g.stride = 2;
  EXPECT_GT(pool_backward_time(cost, g), pool_forward_time(cost, g));
}

TEST(MemPlansTest, GiantRowsFallBackToColumnBlocks) {
  hw::CostModel cost;
  core::PoolGeom small, huge;
  small.batch = huge.batch = 1;
  small.channels = huge.channels = 1;
  small.kernel = huge.kernel = 64;
  small.stride = huge.stride = 64;
  small.in_h = small.in_w = 512;
  huge.in_h = huge.in_w = 64 * 1024;  // K rows no longer fit the LDM
  const double bw_small =
      (4.0 * small.in_h * small.in_w) / pool_forward_time(cost, small);
  const double bw_huge =
      (4.0 * huge.in_h * huge.in_w) / pool_forward_time(cost, huge);
  EXPECT_GT(bw_small, 0.0);
  EXPECT_GT(bw_huge, 0.0);
}

TEST(MemPlansTest, TransformSlowerThanPlainStreaming) {
  hw::CostModel cost;
  const std::int64_t count = 64LL * 64 * 224 * 224;
  EXPECT_GT(transform_time(cost, count, 8),
            elementwise_time(cost, count, 2.0));
}

}  // namespace
}  // namespace swcaffe::dnn
