#pragma once
// Adaptive spatial compression (paper §III-A, Fig 3).
//
// After channel aggregation, Reslim projects features back to image space
// and recursively partitions the grid into quadrants wherever Canny edge
// density exceeds a threshold, stopping at a minimum patch size. Feature-
// rich regions end up with small patches (fine tokens), smooth regions with
// large patches (coarse tokens) — cutting sequence length by the measured
// compression ratio while preserving detail where it matters.
//
// This module provides the partitioner, a threshold search that hits a
// requested compression ratio (the paper sweeps 8x/16x/32x), and the
// pooling/scatter kernels (with exact adjoints) that map uniform-grid
// tokens to quad-tree leaf tokens and back.

#include <vector>

#include "tensor/tensor.hpp"

namespace orbit2 {

/// Axis-aligned cell of the token grid covered by one quad-tree leaf.
struct PatchRect {
  std::int64_t y0 = 0;
  std::int64_t x0 = 0;
  std::int64_t h = 0;
  std::int64_t w = 0;

  std::int64_t area() const { return h * w; }
  bool operator==(const PatchRect& o) const {
    return y0 == o.y0 && x0 == o.x0 && h == o.h && w == o.w;
  }
};

struct QuadTreeParams {
  /// A quadrant splits while its edge density exceeds this threshold.
  float density_threshold = 0.05f;
  /// Leaves never get smaller than this (in grid cells per side).
  std::int64_t min_patch = 1;
  /// Safety bound on recursion.
  std::int64_t max_depth = 16;
};

/// Recursively partitions the [H, W] grid of `edge_map` (a binary Canny
/// output or any non-negative density field treated as edges where > 0).
/// Returns leaves covering the grid exactly once.
std::vector<PatchRect> adaptive_partition(const Tensor& edge_map,
                                          const QuadTreeParams& params);

/// Leaf-count bound of partition_with_target_ratio: ceil(cells /
/// target_ratio), at least 1. A compiled compressed trunk is sized by it.
std::int64_t max_leaves_for_ratio(std::int64_t cells, float target_ratio);

/// Binary-searches the density threshold so that the leaf count is at most
/// max_leaves_for_ratio(cells, target_ratio), i.e. compression >=
/// target_ratio whenever the min-patch constraint allows it. Returns the
/// partition found.
std::vector<PatchRect> partition_with_target_ratio(const Tensor& edge_map,
                                                   float target_ratio,
                                                   std::int64_t min_patch = 1);

/// cells / leaves: achieved sequence-length reduction factor.
float compression_ratio(std::int64_t grid_h, std::int64_t grid_w,
                        const std::vector<PatchRect>& leaves);

/// Validates that `leaves` tile the grid exactly (disjoint, covering).
/// Throws on violation; used by tests and debug assertions.
void check_partition(std::int64_t grid_h, std::int64_t grid_w,
                     const std::vector<PatchRect>& leaves);

// ---- Token pooling / scatter kernels -------------------------------------
// Tokens live on a uniform (grid_h x grid_w) grid, row-major, [P, D].

/// Averages the tokens inside each leaf: [P, D] -> [L, D].
Tensor pool_tokens(const Tensor& tokens, std::int64_t grid_h,
                   std::int64_t grid_w, const std::vector<PatchRect>& leaves);

/// Scatters leaf tokens back to the uniform grid (each covered cell receives
/// its leaf's token): [L, D] -> [P, D].
Tensor scatter_tokens(const Tensor& leaf_tokens, std::int64_t grid_h,
                      std::int64_t grid_w,
                      const std::vector<PatchRect>& leaves);

// ---- Partition as a graph value --------------------------------------------
// A compiled plan carries a partition as one rank-1 float value of
// partition_value_size(max_leaves) elements: the leaf count L, then
// (y0, x0, h, w) per leaf. Entries past leaf L - 1 are unused. Grid
// coordinates are small integers, which float holds exactly.

std::int64_t partition_value_size(std::int64_t max_leaves);

/// Writes `leaves` into `value`, which must have room for all of them.
void encode_partition(const std::vector<PatchRect>& leaves, Tensor& value);

/// pool_tokens into `out` [rows, D], rows >= L: leaf l's mean lands in row
/// l with pool_tokens' arithmetic, and rows from L on are zero.
void pool_tokens_into(const Tensor& tokens, std::int64_t grid_h,
                      std::int64_t grid_w, const Tensor& partition,
                      Tensor& out);

/// scatter_tokens from the first L rows of `leaf_tokens` [rows, D] into
/// `out` [P, D]; rows from L on are never read.
void scatter_tokens_into(const Tensor& leaf_tokens, std::int64_t grid_h,
                         std::int64_t grid_w, const Tensor& partition,
                         Tensor& out);

/// Adjoint of pool_tokens (equals scatter with 1/area weights); needed for
/// backprop through the compression stage.
Tensor pool_tokens_adjoint(const Tensor& grad_leaf_tokens, std::int64_t grid_h,
                           std::int64_t grid_w,
                           const std::vector<PatchRect>& leaves);

/// Adjoint of scatter_tokens (sums cell grads into their leaf).
Tensor scatter_tokens_adjoint(const Tensor& grad_tokens, std::int64_t grid_h,
                              std::int64_t grid_w,
                              const std::vector<PatchRect>& leaves);

}  // namespace orbit2
