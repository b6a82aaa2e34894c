#pragma once
// Differentiable compression / decompression stage: the autograd bridge for
// the quad-tree pooling kernels, so gradients flow through the adaptive
// spatial compression module during training.

#include "autograd/variable.hpp"
#include "quadtree/quadtree.hpp"

namespace orbit2 {

/// Op names of the pooling pair, shared by the tape ops below and the
/// custom ops Reslim captures for the same steps (graph/ir.hpp).
inline constexpr const char* kPoolTokensOp = "pool_tokens";
inline constexpr const char* kScatterTokensOp = "scatter_tokens";

/// Pools uniform-grid tokens [P, D] into leaf tokens [L, D] (averaging
/// within each leaf); differentiable.
autograd::Var compress_tokens(const autograd::Var& tokens, std::int64_t grid_h,
                              std::int64_t grid_w,
                              const std::vector<PatchRect>& leaves);

/// Scatters leaf tokens [L, D] back onto the uniform grid [P, D];
/// differentiable.
autograd::Var decompress_tokens(const autograd::Var& leaf_tokens,
                                std::int64_t grid_h, std::int64_t grid_w,
                                const std::vector<PatchRect>& leaves);

}  // namespace orbit2
