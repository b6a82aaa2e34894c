#pragma once
// Single-head scaled dot-product attention kernels.
//
// Two implementations of the same math:
//   * naive:  materializes the full N x N score matrix (quadratic memory) —
//     the reference the paper's ViT baseline suffers under.
//   * flash:  FlashAttention-style cache-blocked kernel with online
//     (streaming) softmax — O(N) memory, never materializes scores
//     (paper §III-D "Flash Attention ... cache-blocking technique").
// Both have exact backward passes; tests assert elementwise parity.
//
// Multi-head attention lives in the autograd layer and calls these kernels
// per head. Q,K,V are [N, d]; output is [N, d].

#include "tensor/tensor.hpp"

namespace orbit2 {

/// Saved context from a forward pass, consumed by the backward pass.
struct AttentionContext {
  Tensor q, k, v;      // inputs as seen by forward
  Tensor output;       // O
  Tensor probs;        // naive only: softmax(S), [N, N]
  Tensor logsumexp;    // flash only: per-row log-sum-exp of scaled scores [N]
  float scale = 1.0f;
  bool used_flash = false;
};

/// Gradients produced by attention backward.
struct AttentionGrads {
  Tensor dq, dk, dv;
};

/// Naive attention: O = softmax(Q K^T * scale) V.
Tensor attention_naive_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx);

/// Inference-only naive attention writing into preallocated buffers:
/// `scores_ws` is an [Nq, Nk] workspace and `out` is [Nq, d_v]. Issues the
/// exact same kernel calls as attention_naive_forward (gemm NT, in-place
/// scale, row softmax, gemm NN), so results are bitwise identical; performs
/// no heap allocations.
void attention_naive_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale,
                                  Tensor& scores_ws, Tensor& out);

AttentionGrads attention_naive_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output);

/// Parameters of the blocked kernel. Block sizes are rows of Q / rows of KV
/// processed per cache tile; defaults suit L1-resident tiles at d <= 128.
struct FlashParams {
  std::int64_t block_q = 64;
  std::int64_t block_kv = 64;
};

/// Flash attention forward: identical math, O(N·d) memory.
Tensor attention_flash_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx,
                               const FlashParams& params = {});

/// Inference-only flash attention into preallocated `out` [Nq, d_v] and
/// `logsumexp_ws` [Nq]. Runs the same blocked online-softmax body as
/// attention_flash_forward (bitwise-identical results); tiles live in
/// grow-only thread-local scratch, so steady-state calls allocate nothing.
void attention_flash_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale, Tensor& out,
                                  Tensor& logsumexp_ws,
                                  const FlashParams& params = {});

/// Flash attention backward: recomputes score blocks from the saved
/// log-sum-exp instead of stored probabilities.
AttentionGrads attention_flash_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output,
                                        const FlashParams& params = {});

}  // namespace orbit2
