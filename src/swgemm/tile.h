// Register-tiled micro-kernels behind the host sgemm and the implicit
// convolution.
//
// The host kernels run the framework's real float math, so their results are
// pinned bit for bit: every output element must receive exactly the additions
// the scalar loops made, in the same order. The tiles only change which
// elements are in flight together. A tile is kTileM rows x kTileN columns of
// C held in registers (4-float vectors at the baseline ISA, no FMA, so each
// product is rounded before it is added); packed panels feed it one l at a
// time in ascending order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace swcaffe::gemm {

inline constexpr int kTileM = 4;    ///< rows of a register tile
inline constexpr int kTileN = 8;    ///< columns of a register tile (2 vectors)
inline constexpr int kBlockK = 256; ///< l extent of one packed B block
inline constexpr int kBlockN = 256; ///< column extent of one packed B block

/// Per-thread packing buffers, reused across calls (replicas run kernels on
/// several threads at once).
struct TileScratch {
  std::vector<float> a, b, c;
  std::vector<std::int32_t> mask;
};
TileScratch& tile_scratch();

/// Packs rows [i, i + rows) of op(A) over l in [l0, l0 + kc) as the
/// kc x kTileM operand of tile_update: ap[l * kTileM + r] =
/// alpha * op(A)(i + r, l0 + l), where op(A)(i, l) = a[i * rs + l * cs];
/// padding rows are 0 (skipped).
void pack_tile_a(const float* a, std::size_t rs, std::size_t cs, int i,
                 int rows, int l0, int kc, float alpha, float* ap);

/// Axpy tile: for l in [0, kc) ascending and each row r whose
/// av = ap[l * kTileM + r] is nonzero, C(r, :) += av * bp[l * kTileN + :].
/// `ap` is the kc x kTileM packed (alpha-scaled) A, `bp` one kc x kTileN
/// packed B panel. When `mp` is non-null (a kc x kTileN lane mask, -1 valid
/// / 0 clipped), a non-finite av adds a masked +0 in clipped lanes instead of
/// av * 0 = NaN; a finite av times a clipped 0 already adds a signed zero,
/// which cannot change a sum that started at +0. The C tile at `c` (row
/// stride ldc) is rows x cols of a kTileM x kTileN tile.
void tile_update(int kc, const float* ap, const float* bp,
                 const std::int32_t* mp, float* c, std::size_t ldc, int rows,
                 int cols);

/// Dot tile: for each row r < rows and column q < cols,
/// C(r, q) += alpha * dot, where dot starts at 0.0f and adds
/// a_rows[r][l] * bp[l * kTileN + q] for l in [0, k) ascending. `bp` is a
/// k x kTileN packed panel of B rows and a_rows[0, rows) the A rows.
void tile_dot(int k, const float* const* a_rows, const float* bp, float alpha,
              float* c, std::size_t ldc, int rows, int cols);

}  // namespace swcaffe::gemm
