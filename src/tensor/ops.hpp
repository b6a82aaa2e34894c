#pragma once
// Row-wise numeric kernels shared by attention and the autograd layer:
// softmax, layernorm, GELU. Kept as raw (non-differentiable) kernels here;
// autograd wires forward/backward pairs.

#include "tensor/tensor.hpp"

namespace orbit2 {

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

}  // namespace orbit2
