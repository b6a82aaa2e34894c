#pragma once
// Differentiable primitive operations on Vars.
//
// Each op computes its value eagerly with the tensor kernels and registers a
// backprop closure on the tape. Fused, model-specific ops (channel
// aggregation, Bayesian loss, quad-tree pooling) live next to the model and
// are built from make_op directly.

#include "autograd/variable.hpp"
#include "tensor/conv.hpp"
#include "tensor/patches.hpp"

namespace orbit2::autograd {

// ---- Elementwise -----------------------------------------------------

Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var scale(const Var& a, float factor);
Var gelu(const Var& a);

// ---- Linear algebra ----------------------------------------------------

/// C = A(M,K) * B(K,N).
Var matmul(const Var& a, const Var& b);

/// y = x + bias broadcast over rows: x is [N, D], bias is [D].
Var add_bias_rows(const Var& x, const Var& bias);

/// y = x W + b, x [N, K], W [K, M], b [M].
Var linear(const Var& x, const Var& weight, const Var& bias);

// ---- Shape -----------------------------------------------------------

/// View with a new shape (same numel); backward reshapes the gradient back.
Var reshape(const Var& x, Shape new_shape);

/// Copy of rows [start, start+len) along axis 0.
Var slice_rows(const Var& x, std::int64_t start, std::int64_t len);

/// Concatenation along axis 0.
Var concat_rows(const std::vector<Var>& parts);

/// Row permutation: out[i] = x[perm[i]]. perm must be a bijection on
/// [0, rows); backward applies the inverse permutation. The building block
/// for windowed attention's partition/shift reorderings.
Var permute_rows(const Var& x, const std::vector<std::int64_t>& perm);

// ---- Normalization ----------------------------------------------------

/// Row-wise layer norm of [N, D] with learnable gamma/beta [D].
Var layernorm(const Var& x, const Var& gamma, const Var& beta,
              float epsilon = 1e-5f);

// ---- Reductions -------------------------------------------------------

/// Scalar sum of all elements.
Var sum(const Var& x);
/// Scalar mean of all elements.
Var mean(const Var& x);

// ---- Convolution / resampling -----------------------------------------

/// 2-D convolution, x [Cin,H,W], w [Cout,Cin,kh,kw], b [Cout].
Var conv2d(const Var& x, const Var& weight, const Var& bias,
           const Conv2dSpec& spec);

/// Bilinear resize of [C,H,W] to (out_h, out_w).
Var upsample_bilinear(const Var& x, std::int64_t out_h, std::int64_t out_w);

// ---- Patch <-> image permutations ---------------------------------------

/// [C, H, W] -> [P, C*p*p] with P = (H/p)*(W/p); ViT tokenization layout.
Var image_to_tokens(const Var& image, std::int64_t patch);

/// Inverse of image_to_tokens: [P, C*p*p] -> [C, H, W].
Var tokens_to_image(const Var& tokens, std::int64_t channels, std::int64_t h,
                    std::int64_t w, std::int64_t patch);

// ---- Raw permutation kernels (shared with non-autograd code) -------------
// Now tensor-level (tensor/patches.hpp) so the compiled inference executor
// can replay them; re-exported here for existing callers.

using ::orbit2::image_to_tokens_raw;
using ::orbit2::tokens_to_image_raw;

// ---- Attention ----------------------------------------------------------

struct MhaWeights {
  Var wq, wk, wv, wo;  // all [D, D]
  Var bq, bk, bv, bo;  // all [D]
};

/// Multi-head self-attention over tokens x [N, D]; `heads` must divide D.
/// When `use_flash` is set the cache-blocked streaming-softmax kernel is
/// used; otherwise the naive quadratic kernel.
///
/// `partition`, when given, is a partition value (quadtree/quadtree.hpp)
/// whose element 0 is the live row count L <= N of a padded token
/// sequence. Attention then runs on rows [0, L) alone, so no padded key is
/// ever seen, and output rows from L on are zero. Under capture the value
/// is the op's last input, so a replay reads each input's own L.
Var multihead_self_attention(const Var& x, const MhaWeights& weights,
                             std::int64_t heads, bool use_flash,
                             const Tensor* partition = nullptr);

}  // namespace orbit2::autograd
