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
// Q,K,V are [N, d]; output is [N, d]. multihead_attention_forward_into is
// the one multi-head forward body: the autograd op and the compiled
// executor's replay both call it, so eager and replay agree by
// construction.

#include <cstdint>
#include <span>

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

/// The tensors of one attention forward: inputs q, k [Nq|Nk, d] and v
/// [Nk, d_v], output `out` [Nq, d_v], and the kernel's `saved` state —
/// the probabilities [Nq, Nk] (naive) or the log-sum-exp [Nq] (flash).
struct AttentionBuffers {
  Tensor q, k, v, out, saved;
};

/// The backward context of a forward that ran on `buffers`.
AttentionContext attention_context(const AttentionBuffers& buffers,
                                   float scale, bool used_flash);

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

/// Projection weights of one multi-head self-attention layer: [D, D]
/// matrices and [D] biases.
struct MhaProjections {
  const Tensor& wq;
  const Tensor& bq;
  const Tensor& wk;
  const Tensor& bk;
  const Tensor& wv;
  const Tensor& bv;
  const Tensor& wo;
  const Tensor& bo;
};

/// Multi-head self-attention forward over x [L, D] with `heads` heads of
/// width dh = D / heads: q, k, v [L, D] = x W + b; each head's column block
/// of q, k, v is copied into its AttentionBuffers (q, k, v [L, dh]), runs
/// the flash or naive _into kernel into `out` [L, dh] and `saved` ([L] or
/// [L, L]), and is pasted into `concat` [L, D]; finally out [L, D] =
/// concat Wo + bo. `head_buffers` holds one entry per head (the eager op
/// keeps them as backward contexts) or a single entry every head reuses
/// (the compiled replay). Allocates nothing.
void multihead_attention_forward_into(
    const Tensor& x, const MhaProjections& w, std::int64_t heads,
    bool use_flash, float scale, Tensor& q, Tensor& k, Tensor& v,
    Tensor& concat, std::span<AttentionBuffers> head_buffers, Tensor& out);

}  // namespace orbit2
