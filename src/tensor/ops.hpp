#pragma once
// Row-wise numeric kernels shared by attention and the autograd layer:
// softmax, layernorm, GELU, plus the row/column data movement and
// row-broadcast adds that the eager ops and the compiled executor both run.
// Kept as raw (non-differentiable) kernels here; autograd wires
// forward/backward pairs.

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace orbit2 {

/// Elements per parallel chunk of the elementwise kernels, eager and fused.
inline constexpr std::int64_t kElementwiseGrain = std::int64_t{1} << 14;

/// Numerically stable softmax along the last axis of a rank-2 tensor.
Tensor softmax_rows(const Tensor& logits);

/// softmax_rows writing into `out` (same shape). `out` may alias `logits`:
/// each element is read before it is overwritten, so the in-place result is
/// bitwise identical to the out-of-place one. Used by the compiled inference
/// executor to run attention without allocating.
void softmax_rows_into(const Tensor& logits, Tensor& out);

/// Jacobian-vector product of softmax_rows: given y = softmax(x) and dL/dy,
/// returns dL/dx.
Tensor softmax_rows_backward(const Tensor& softmax_output,
                             const Tensor& grad_output);

/// Per-row layer normalization of a rank-2 tensor [N, D] with learnable
/// gamma/beta [D]; returns normalized output and writes the per-row mean and
/// inverse stddev needed by backward.
Tensor layernorm_rows(const Tensor& input, const Tensor& gamma,
                      const Tensor& beta, float epsilon, Tensor* saved_mean,
                      Tensor* saved_inv_std);

/// layernorm_rows writing into a preallocated `out`; saved_mean/saved_inv_std
/// are optional (nullptr skips them without allocating). The normalized
/// output bytes are identical whether or not stats are saved.
void layernorm_rows_into(const Tensor& input, const Tensor& gamma,
                         const Tensor& beta, float epsilon, Tensor& out,
                         Tensor* saved_mean, Tensor* saved_inv_std);

/// Backward of layernorm_rows; accumulates into grad_gamma/grad_beta.
Tensor layernorm_rows_backward(const Tensor& grad_output, const Tensor& input,
                               const Tensor& gamma, const Tensor& saved_mean,
                               const Tensor& saved_inv_std,
                               Tensor& grad_gamma, Tensor& grad_beta);

/// Tanh-approximation GELU (the ViT default) and its backward,
/// grad_input = grad_output * gelu'(input). Both run simd::Ops gelu_f32 /
/// gelu_grad_f32, whose tanh is fdlibm's tanhf on every ISA.
Tensor gelu(const Tensor& input);
Tensor gelu_backward(const Tensor& input, const Tensor& grad_output);

// ---- Row-broadcast adds and row/column data movement -------------------
// One body per job, called by the eager autograd ops and by the compiled
// executor's replay alike. Adds are one IEEE add per element and moves are
// pure copies, so any chunking gives the same bytes at every thread count.

/// `group` for add_table_rows_f32 when every row adds table row 0 (a bias).
inline constexpr std::int64_t kAllRows = INT64_MAX;

/// Row-broadcast add over the flat elements [i0, i1) of a row-major [*, d]
/// array: element i, in row r = i / d and column c = i % d, gains
/// table[(r / group) * d + c], so each run of `group` rows shares one table
/// row. Runs as one simd add_f32 per row segment.
void add_table_rows_f32(float* dst, std::int64_t i0, std::int64_t i1,
                        const float* table, std::int64_t d,
                        std::int64_t group);

/// add_table_rows_f32 over every element of `x` [rows, d], in parallel
/// elementwise chunks.
void add_table_rows_inplace(Tensor& x, const float* table, std::int64_t group);

/// out [rows, len] = columns [start, start + len) of x [rows, cols].
void copy_cols_into(const Tensor& x, std::int64_t start, Tensor& out);

/// Columns [start, start + block.dim(1)) of x [rows, cols] = block.
void paste_cols(const Tensor& block, std::int64_t start, Tensor& x);

/// Axis-0 gather: out row i = x row index[i] for every row of `out`, rows
/// being the axis-0 slices of x and out (same inner size).
void gather_rows_into(const Tensor& x, const std::vector<std::int64_t>& index,
                      Tensor& out);

}  // namespace orbit2
