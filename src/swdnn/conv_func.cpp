#include "swdnn/conv_func.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/log.h"
#include "swdnn/im2col.h"
#include "swgemm/reference.h"
#include "swgemm/tile.h"

namespace swcaffe::dnn {

namespace {

std::size_t col_count(const core::ConvGeom& g) {
  return static_cast<std::size_t>(g.in_c) * g.kernel * g.kernel * g.out_h() *
         g.out_w();
}

/// Scratch column buffer reused across calls when the caller passes none.
float* scratch_col(const core::ConvGeom& g, float* user_buf,
                   std::vector<float>& local) {
  if (user_buf != nullptr) return user_buf;
  local.resize(col_count(g));
  return local.data();
}

/// Grouped convolutions recurse: each (image, group) pair is a batch-1
/// single-group convolution over contiguous channel slices.
struct GroupView {
  core::ConvGeom sub;           // per-group geometry, batch = 1
  std::size_t in_stride;        // one group's input floats
  std::size_t out_stride;       // one group's output floats
  std::size_t w_stride;         // one group's weight floats
  std::size_t in_img, out_img;  // full-image strides
};

GroupView group_view(const core::ConvGeom& g) {
  SWC_CHECK_GT(g.group, 0);
  SWC_CHECK_EQ(g.in_c % g.group, 0);
  SWC_CHECK_EQ(g.out_c % g.group, 0);
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

}  // namespace

void conv_forward_explicit(const core::ConvGeom& g, const float* bottom,
                           const float* weight, const float* bias, float* top,
                           float* col_buf) {
  if (g.group > 1) {
    const GroupView v = group_view(g);
    for (int b = 0; b < g.batch; ++b) {
      for (int gp = 0; gp < g.group; ++gp) {
        conv_forward_explicit(
            v.sub, bottom + b * v.in_img + gp * v.in_stride,
            weight + gp * v.w_stride,
            bias != nullptr ? bias + gp * v.sub.out_c : nullptr,
            top + b * v.out_img + gp * v.out_stride, col_buf);
      }
    }
    return;
  }
  std::vector<float> local;
  float* col = scratch_col(g, col_buf, local);
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t in_img = static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_img = static_cast<std::size_t>(g.out_c) * oh * ow;
  const int kdim = g.in_c * g.kernel * g.kernel;
  for (int b = 0; b < g.batch; ++b) {
    im2col(bottom + b * in_img, g, col);
    // (No x kdim) * (kdim x oh*ow) -> (No x oh*ow)
    gemm::sgemm(false, false, g.out_c, oh * ow, kdim, 1.0f, weight, col, 0.0f,
                top + b * out_img);
    if (bias != nullptr) {
      for (int c = 0; c < g.out_c; ++c) {
        float* plane = top + b * out_img + static_cast<std::size_t>(c) * oh * ow;
        for (int i = 0; i < oh * ow; ++i) plane[i] += bias[c];
      }
    }
  }
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
  // Register-tiled direct convolution: a GEMM of the weights (No x taps)
  // against one block of output positions at a time, im2col'd on the fly
  // with positions of the whole batch side by side. Each output gets the
  // taps t = (ni, kh, kw) in ascending order from +0, zero weights skipped,
  // bias last — the additions of the scalar direct loop, in its order.
  // Coordinate-mapped padding (Sec. IV-B2) becomes a lane mask: a clipped
  // tap loads 0, so it adds w * 0 = +-0, which leaves a sum that started at
  // +0 unchanged; only a non-finite w needs the mask to add +0 there.
  using gemm::kBlockK;
  using gemm::kBlockN;
  using gemm::kTileM;
  using gemm::kTileN;
  const int oh = g.out_h(), ow = g.out_w(), k2 = g.kernel * g.kernel;
  const int plane = oh * ow, taps = g.in_c * k2;
  const int positions = g.batch * plane;
  const std::size_t in_img = static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_img = static_cast<std::size_t>(g.out_c) * plane;
  const std::size_t weights = static_cast<std::size_t>(g.out_c) * taps;
  const bool finite = std::all_of(weight, weight + weights,
                                  [](float w) { return std::isfinite(w); });
  gemm::TileScratch& s = gemm::tile_scratch();
  // Per position of the block: its image's input and the top-left input
  // coordinate of its window.
  std::vector<const float*> src(kBlockN);
  std::vector<int> y0(kBlockN), x0(kBlockN);
  for (int p0 = 0; p0 < positions; p0 += kBlockN) {
    const int nc = std::min(kBlockN, positions - p0);
    const int panels = (nc + kTileN - 1) / kTileN;
    const std::size_t ldc = static_cast<std::size_t>(panels) * kTileN;
    for (int q = 0; q < nc; ++q) {
      const int b = (p0 + q) / plane, pos = (p0 + q) % plane;
      src[q] = bottom + b * in_img;
      y0[q] = (pos / ow) * g.stride - g.pad;
      x0[q] = (pos % ow) * g.stride - g.pad;
    }
    s.c.assign(static_cast<std::size_t>(g.out_c) * ldc, 0.0f);
    for (int t0 = 0; t0 < taps; t0 += kBlockK) {
      const int kc = std::min(kBlockK, taps - t0);
      const std::size_t panel = static_cast<std::size_t>(kc) * kTileN;
      s.b.assign(panels * panel, 0.0f);
      if (!finite) s.mask.assign(panels * panel, 0);
      for (int l = 0; l < kc; ++l) {
        const int t = t0 + l, ni = t / k2, kh = (t % k2) / g.kernel,
                  kw = t % g.kernel;
        const std::size_t plane_off =
            static_cast<std::size_t>(ni) * g.in_h * g.in_w;
        for (int q = 0; q < nc; ++q) {
          const int sy = y0[q] + kh, sx = x0[q] + kw;
          if (sy < 0 || sy >= g.in_h || sx < 0 || sx >= g.in_w) continue;
          const std::size_t at = (q / kTileN) * panel +
                                 static_cast<std::size_t>(l) * kTileN +
                                 q % kTileN;
          s.b[at] = src[q][plane_off + static_cast<std::size_t>(sy) * g.in_w + sx];
          if (!finite) s.mask[at] = -1;
        }
      }
      s.a.resize(static_cast<std::size_t>(kc) * kTileM);
      for (int no = 0; no < g.out_c; no += kTileM) {
        const int rows = std::min(kTileM, g.out_c - no);
        // alpha = 1 is exact: the tile sees each weight's own value.
        gemm::pack_tile_a(weight, taps, 1, no, rows, t0, kc, 1.0f,
                          s.a.data());
        for (int p = 0; p < panels; ++p) {
          gemm::tile_update(kc, s.a.data(), s.b.data() + p * panel,
                            finite ? nullptr : s.mask.data() + p * panel,
                            s.c.data() + no * ldc + p * kTileN, ldc, rows,
                            kTileN);
        }
      }
    }
    for (int q = 0; q < nc; ++q) {
      const int b = (p0 + q) / plane, pos = (p0 + q) % plane;
      float* out = top + b * out_img + pos;
      for (int no = 0; no < g.out_c; ++no) {
        const float acc = s.c[no * ldc + q];
        out[static_cast<std::size_t>(no) * plane] =
            bias != nullptr ? acc + bias[no] : acc;
      }
    }
  }
}

void conv_backward_weight(const core::ConvGeom& g, const float* bottom,
                          const float* top_diff, float* weight_diff,
                          float* bias_diff, float* col_buf) {
  if (g.group > 1) {
    const GroupView v = group_view(g);
    for (int b = 0; b < g.batch; ++b) {
      for (int gp = 0; gp < g.group; ++gp) {
        conv_backward_weight(
            v.sub, bottom + b * v.in_img + gp * v.in_stride,
            top_diff + b * v.out_img + gp * v.out_stride,
            weight_diff + gp * v.w_stride,
            bias_diff != nullptr ? bias_diff + gp * v.sub.out_c : nullptr,
            col_buf);
      }
    }
    return;
  }
  std::vector<float> local;
  float* col = scratch_col(g, col_buf, local);
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t in_img = static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_img = static_cast<std::size_t>(g.out_c) * oh * ow;
  const int kdim = g.in_c * g.kernel * g.kernel;
  for (int b = 0; b < g.batch; ++b) {
    im2col(bottom + b * in_img, g, col);
    // dW (No x kdim) += top_diff (No x oh*ow) * col^T (oh*ow x kdim)
    gemm::sgemm(false, true, g.out_c, kdim, oh * ow, 1.0f,
                top_diff + b * out_img, col, 1.0f, weight_diff);
    if (bias_diff != nullptr) {
      for (int c = 0; c < g.out_c; ++c) {
        const float* plane =
            top_diff + b * out_img + static_cast<std::size_t>(c) * oh * ow;
        float acc = 0.0f;
        for (int i = 0; i < oh * ow; ++i) acc += plane[i];
        bias_diff[c] += acc;
      }
    }
  }
}

void conv_backward_input(const core::ConvGeom& g, const float* weight,
                         const float* top_diff, float* bottom_diff,
                         float* col_buf) {
  if (g.group > 1) {
    const GroupView v = group_view(g);
    for (int b = 0; b < g.batch; ++b) {
      for (int gp = 0; gp < g.group; ++gp) {
        conv_backward_input(v.sub, weight + gp * v.w_stride,
                            top_diff + b * v.out_img + gp * v.out_stride,
                            bottom_diff + b * v.in_img + gp * v.in_stride,
                            col_buf);
      }
    }
    return;
  }
  std::vector<float> local;
  float* col = scratch_col(g, col_buf, local);
  const int oh = g.out_h(), ow = g.out_w();
  const std::size_t in_img = static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_img = static_cast<std::size_t>(g.out_c) * oh * ow;
  const int kdim = g.in_c * g.kernel * g.kernel;
  std::fill(bottom_diff,
            bottom_diff + static_cast<std::size_t>(g.batch) * in_img, 0.0f);
  for (int b = 0; b < g.batch; ++b) {
    // col (kdim x oh*ow) = W^T (kdim x No) * top_diff (No x oh*ow)
    gemm::sgemm(true, false, kdim, oh * ow, g.out_c, 1.0f, weight,
                top_diff + b * out_img, 0.0f, col);
    col2im(col, g, bottom_diff + b * in_img);
  }
}

}  // namespace swcaffe::dnn
