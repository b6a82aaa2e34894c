#include "attention/attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/scratch.hpp"
#include "core/simd/simd.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace orbit2 {

namespace {

// Approximate FLOP accounting: 2*Nq*Nk*(d + d_v) for a forward pass (score
// GEMM + weighted sum), doubled for a backward pass. Exponentials and
// rescaling are ignored; the counter tracks GEMM-dominated work only.
std::int64_t attention_fwd_flops(std::int64_t nq, std::int64_t nk,
                                 std::int64_t d, std::int64_t dv) {
  return 2 * nq * nk * (d + dv);
}

void check_qkv(const Tensor& q, const Tensor& k, const Tensor& v) {
  ORBIT2_REQUIRE(q.rank() == 2 && k.rank() == 2 && v.rank() == 2,
                 "attention expects rank-2 Q,K,V");
  ORBIT2_REQUIRE(q.dim(1) == k.dim(1), "attention: Q/K head dim mismatch");
  ORBIT2_REQUIRE(k.dim(0) == v.dim(0), "attention: K/V length mismatch");
  ORBIT2_REQUIRE(k.dim(0) >= 1, "attention: empty key set");
}

void check_flash_params(const FlashParams& params) {
  ORBIT2_REQUIRE(params.block_q >= 1 && params.block_kv >= 1,
                 "flash block sizes must be positive");
}

}  // namespace

AttentionContext attention_context(const AttentionBuffers& buffers,
                                   float scale, bool used_flash) {
  AttentionContext ctx;
  ctx.q = buffers.q;
  ctx.k = buffers.k;
  ctx.v = buffers.v;
  ctx.output = buffers.out;
  (used_flash ? ctx.logsumexp : ctx.probs) = buffers.saved;
  ctx.scale = scale;
  ctx.used_flash = used_flash;
  return ctx;
}

Tensor attention_naive_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx) {
  check_qkv(q, k, v);
  AttentionBuffers b{q, k, v, Tensor(Shape{q.dim(0), v.dim(1)}),
                     Tensor(Shape{q.dim(0), k.dim(0)})};
  attention_naive_forward_into(q, k, v, scale, b.saved, b.out);
  if (ctx) *ctx = attention_context(b, scale, /*used_flash=*/false);
  return b.out;
}

void attention_naive_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale,
                                  Tensor& scores_ws, Tensor& out) {
  check_qkv(q, k, v);
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  ORBIT2_REQUIRE(scores_ws.shape() == Shape({nq, nk}),
                 "attention_naive_forward_into: scores workspace must be "
                     << nq << "x" << nk);
  ORBIT2_REQUIRE(out.shape() == Shape({nq, dv}),
                 "attention_naive_forward_into: out must be " << nq << "x"
                                                              << dv);
  const std::int64_t naive_flops = attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_naive_forward", "attention", "flops",
                      naive_flops);
  ORBIT2_OBS_COUNT("attention.flops", naive_flops);
  // S = Q K^T (gemm NT), S *= scale, P = softmax(S) in place, O = P V.
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, nq, nk, d,
                q.data().data(), k.data().data(), scores_ws.data().data());
  scores_ws.scale_inplace(scale);
  softmax_rows_into(scores_ws, scores_ws);
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, nq, dv, nk,
                scores_ws.data().data(), v.data().data(), out.data().data());
}

AttentionGrads attention_naive_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output) {
  ORBIT2_REQUIRE(!ctx.used_flash, "context came from flash forward");
  const std::int64_t bwd_flops =
      2 * attention_fwd_flops(ctx.q.dim(0), ctx.k.dim(0), ctx.q.dim(1),
                              ctx.v.dim(1));
  ORBIT2_OBS_SPAN_ARG("attention_naive_backward", "attention", "flops",
                      bwd_flops);
  ORBIT2_OBS_COUNT("attention.flops", bwd_flops);
  const Tensor& probs = ctx.probs;
  // dV = P^T dO
  Tensor dv = matmul_tn(probs, grad_output);
  // dP = dO V^T
  const Tensor dp = matmul_nt(grad_output, ctx.v);
  // dS = softmax' , then scaled.
  Tensor ds = softmax_rows_backward(probs, dp);
  ds.scale_inplace(ctx.scale);
  // dQ = dS K ; dK = dS^T Q
  Tensor dq = matmul(ds, ctx.k);
  Tensor dk = matmul_tn(ds, ctx.q);
  return {std::move(dq), std::move(dk), std::move(dv)};
}

// The blocked online-softmax (flash) kernels parallelize over the dimension
// whose outputs they own — query blocks in the forward and dq pass, key
// blocks in the dk/dv pass — while walking the other dimension serially in
// ascending block order inside each chunk. Every output row is therefore
// produced by exactly one chunk in a fixed accumulation order, making
// results bit-identical for any thread count.
//
// Inside a (query block, KV block) tile the score and dP dots of the whole
// query block come from one simd::Ops::gemm_tile_f64 call over a transposed
// K (or V) block: lane (i, j) accumulates double(q_i[t]) * double(k_j[t]) in
// ascending t from 0.0. The products are exact, so every lane equals the
// sequential double dot of the two rows bit for bit on every ISA. The P·V,
// dQ, dK and dV accumulates are simd::Ops::axpy_rows_f32 calls, which apply
// their rows to each output element in the same order as one axpy_f32 per
// (query, key) pair.

namespace {

/// Grow-only per-thread scratch of the flash kernels. Every entry read is
/// written earlier in the same tile, so reuse across calls cannot leak
/// values, and steady-state calls at a fixed shape allocate nothing.
struct FlashScratch {
  std::vector<float> kt;      // K block transposed, [d][bk]
  std::vector<float> vt;      // V block transposed, [dv][bk] (backward)
  std::vector<double> lanes;  // score or dP lanes of a query block, [bq][bk]
  std::vector<float> p;       // forward: one probability row; backward: P
  std::vector<float> ds;      // backward: dS tile
  std::vector<float> row_max;
  std::vector<float> row_sum;
};

FlashScratch& flash_scratch() {
  thread_local FlashScratch scratch;
  return scratch;
}

using core::grow_aligned;

/// Copies rows [r0, r0 + bk) of the row-major [*, d] matrix `src` into
/// `dst` laid out [d][bk].
void transpose_block(const float* src, std::int64_t d, std::int64_t r0,
                     std::int64_t bk, float* dst) {
  for (std::int64_t j = 0; j < bk; ++j) {
    const float* row = src + (r0 + j) * d;
    for (std::int64_t t = 0; t < d; ++t) dst[t * bk + j] = row[t];
  }
}

/// lanes[r * bk + j] = sum over ascending t of
/// double(x[r * d + t]) * double(bt[t * bk + j]) for r in [0, rows),
/// starting from 0.0: the sequential double dot of row r of x with row j of
/// the block that `bt` holds transposed.
void dot_lanes(const simd::Ops& sops, const float* x, std::int64_t rows,
               const float* bt, std::int64_t d, std::int64_t bk,
               double* lanes) {
  std::fill(lanes, lanes + rows * bk, 0.0);
  sops.gemm_tile_f64(lanes, bk, x, d, bt, bk, rows, bk, d);
}

/// Body of the flash forward: writes the (pre-zeroed) output and the
/// per-row log-sum-exp through raw pointers.
void flash_forward_body(const float* pq, const float* pk, const float* pv,
                        float* po, float* plse, std::int64_t nq,
                        std::int64_t nk, std::int64_t d, std::int64_t dv,
                        float scale, const FlashParams& params) {
  const std::int64_t q_blocks = (nq + params.block_q - 1) / params.block_q;
  const std::int64_t max_bq = std::min(nq, params.block_q);
  const std::int64_t max_bk = std::min(nk, params.block_kv);
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(q_blocks, 1, [&](std::int64_t qb0, std::int64_t qb1) {
    // Running row statistics (max m_i, normalizer l_i) cover this chunk's
    // current query block only.
    FlashScratch& s = flash_scratch();
    float* kt = grow_aligned(s.kt, d * max_bk);
    double* lanes = grow_aligned(s.lanes, max_bq * max_bk);
    float* prow = grow_aligned(s.p, max_bk);
    float* row_max = grow_aligned(s.row_max, max_bq);
    float* row_sum = grow_aligned(s.row_sum, max_bq);
    for (std::int64_t qb = qb0; qb < qb1; ++qb) {
      const std::int64_t q0 = qb * params.block_q;
      const std::int64_t q1 = std::min(nq, q0 + params.block_q);
      std::fill(row_max, row_max + (q1 - q0),
                -std::numeric_limits<float>::infinity());
      std::fill(row_sum, row_sum + (q1 - q0), 0.0f);

      for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
        const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
        transpose_block(pk, d, k0, bk, kt);
        dot_lanes(sops, pq + q0 * d, q1 - q0, kt, d, bk, lanes);

        for (std::int64_t i = q0; i < q1; ++i) {
          // Score row S_i = q_i Kb^T * scale.
          const double* srow = lanes + (i - q0) * bk;
          for (std::int64_t j = 0; j < bk; ++j) {
            prow[j] = static_cast<float>(srow[j]) * scale;
          }

          // Online softmax update: rescale the previous accumulators when a
          // new maximum appears, then fold in this block's contributions.
          float block_max = prow[0];
          for (std::int64_t j = 1; j < bk; ++j) {
            block_max = std::max(block_max, prow[j]);
          }
          const float old_max = row_max[i - q0];
          const float new_max = std::max(old_max, block_max);
          const float correction =
              (old_max == -std::numeric_limits<float>::infinity())
                  ? 0.0f
                  : std::exp(old_max - new_max);

          float* orow = po + i * dv;
          sops.scale_f32(orow, correction, dv);
          row_sum[i - q0] *= correction;
          for (std::int64_t j = 0; j < bk; ++j) {
            prow[j] = std::exp(prow[j] - new_max);
            row_sum[i - q0] += prow[j];
          }
          sops.axpy_rows_f32(orow, pv + k0 * dv, dv, prow, bk, dv);
          row_max[i - q0] = new_max;
        }
      }

      // Final normalization and log-sum-exp bookkeeping for this block.
      for (std::int64_t i = q0; i < q1; ++i) {
        const float l = row_sum[i - q0];
        ORBIT2_CHECK(l > 0.0f, "flash attention: zero normalizer at row " << i);
        const float inv = 1.0f / l;
        sops.scale_f32(po + i * dv, inv, dv);
        plse[i] = row_max[i - q0] + std::log(l);
      }
    }
  });
}

}  // namespace

Tensor attention_flash_forward(const Tensor& q, const Tensor& k,
                               const Tensor& v, float scale,
                               AttentionContext* ctx,
                               const FlashParams& params) {
  check_qkv(q, k, v);
  AttentionBuffers b{q, k, v, Tensor(Shape{q.dim(0), v.dim(1)}),
                     Tensor(Shape{q.dim(0)})};
  attention_flash_forward_into(q, k, v, scale, b.out, b.saved, params);
  if (ctx) *ctx = attention_context(b, scale, /*used_flash=*/true);
  return b.out;
}

void attention_flash_forward_into(const Tensor& q, const Tensor& k,
                                  const Tensor& v, float scale, Tensor& out,
                                  Tensor& logsumexp_ws,
                                  const FlashParams& params) {
  check_qkv(q, k, v);
  check_flash_params(params);
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  ORBIT2_REQUIRE(out.shape() == Shape({nq, dv}),
                 "attention_flash_forward_into: out must be " << nq << "x"
                                                              << dv);
  ORBIT2_REQUIRE(logsumexp_ws.shape() == Shape({nq}),
                 "attention_flash_forward_into: logsumexp workspace must be ["
                     << nq << "]");
  const std::int64_t flash_flops = attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_flash_forward", "attention", "flops",
                      flash_flops);
  ORBIT2_OBS_COUNT("attention.flops", flash_flops);

  out.fill(0.0f);  // the body accumulates into the output
  flash_forward_body(q.data().data(), k.data().data(), v.data().data(),
                     out.data().data(), logsumexp_ws.data().data(), nq, nk, d,
                     dv, scale, params);
}

AttentionGrads attention_flash_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output,
                                        const FlashParams& params) {
  ORBIT2_REQUIRE(ctx.used_flash, "context came from naive forward");
  const Tensor& q = ctx.q;
  const Tensor& k = ctx.k;
  const Tensor& v = ctx.v;
  check_qkv(q, k, v);
  check_flash_params(params);
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  check_same_shape(grad_output, ctx.output, "attention_flash_backward");
  const std::int64_t fbwd_flops = 2 * attention_fwd_flops(nq, nk, d, dv);
  ORBIT2_OBS_SPAN_ARG("attention_flash_backward", "attention", "flops",
                      fbwd_flops);
  ORBIT2_OBS_COUNT("attention.flops", fbwd_flops);

  Tensor dq = Tensor::zeros(q.shape());
  Tensor dk = Tensor::zeros(k.shape());
  Tensor dvt = Tensor::zeros(v.shape());

  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  const float* po = ctx.output.data().data();
  const float* pgo = grad_output.data().data();
  const float* plse = ctx.logsumexp.data().data();
  float* pdq = dq.data().data();
  float* pdk = dk.data().data();
  float* pdv = dvt.data().data();

  // D_i = rowsum(dO_i * O_i): the softmax-backward dot term, computed once.
  std::vector<float> delta(static_cast<std::size_t>(nq));
  kernels::parallel_for(
      nq, kernels::grain_for(dv), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          double acc = 0.0;
          for (std::int64_t t = 0; t < dv; ++t) {
            acc += static_cast<double>(pgo[i * dv + t]) * po[i * dv + t];
          }
          delta[static_cast<std::size_t>(i)] = static_cast<float>(acc);
        }
      });

  const std::int64_t q_blocks = (nq + params.block_q - 1) / params.block_q;
  const std::int64_t k_blocks = (nk + params.block_kv - 1) / params.block_kv;
  const std::int64_t max_bq = std::min(nq, params.block_q);
  const std::int64_t max_bk = std::min(nk, params.block_kv);
  const simd::Ops& sops = simd::ops();

  // Recomputes the P and dS tiles of query rows [q0, q1) x keys
  // [k0, k0 + bk) from Q, K, V, dO and the saved logsumexp, with
  // dS_ij = P_ij * (dP_ij - D_i) * scale. Entry (i, j) of each tile lands at
  // (i - q0) * row_step + j * col_step, so the dQ pass reads tile rows and
  // the dK/dV pass reads tile columns contiguously. Returns the two tiles.
  struct Tiles {
    const float* p;
    const float* ds;
  };
  auto p_ds_tiles = [&](FlashScratch& s, std::int64_t q0, std::int64_t q1,
                        std::int64_t k0, std::int64_t bk,
                        std::int64_t row_step,
                        std::int64_t col_step) -> Tiles {
    float* kt = grow_aligned(s.kt, d * max_bk);
    float* vt = grow_aligned(s.vt, dv * max_bk);
    double* lanes = grow_aligned(s.lanes, max_bq * max_bk);
    float* p = grow_aligned(s.p, max_bq * max_bk);
    float* ds = grow_aligned(s.ds, max_bq * max_bk);
    transpose_block(pk, d, k0, bk, kt);
    transpose_block(pv, dv, k0, bk, vt);
    const std::int64_t bq = q1 - q0;
    dot_lanes(sops, pq + q0 * d, bq, kt, d, bk, lanes);
    for (std::int64_t i = q0; i < q1; ++i) {
      const float lse = plse[i];
      const std::int64_t base = (i - q0) * row_step;
      const double* srow = lanes + (i - q0) * bk;
      for (std::int64_t j = 0; j < bk; ++j) {
        p[base + j * col_step] =
            std::exp(static_cast<float>(srow[j]) * ctx.scale - lse);
      }
    }
    dot_lanes(sops, pgo + q0 * dv, bq, vt, dv, bk, lanes);
    for (std::int64_t i = q0; i < q1; ++i) {
      const float delta_i = delta[static_cast<std::size_t>(i)];
      const std::int64_t base = (i - q0) * row_step;
      const double* dprow = lanes + (i - q0) * bk;
      for (std::int64_t j = 0; j < bk; ++j) {
        const std::int64_t at = base + j * col_step;
        ds[at] = p[at] * (static_cast<float>(dprow[j]) - delta_i) * ctx.scale;
      }
    }
    return {p, ds};
  };

  // Pass 1 — dQ: query blocks own disjoint dq rows; key blocks are walked
  // serially in ascending order inside each chunk.
  kernels::parallel_for(q_blocks, 1, [&](std::int64_t qb0, std::int64_t qb1) {
    FlashScratch& s = flash_scratch();
    for (std::int64_t qb = qb0; qb < qb1; ++qb) {
      const std::int64_t q0 = qb * params.block_q;
      const std::int64_t q1 = std::min(nq, q0 + params.block_q);
      for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
        const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
        const Tiles tiles = p_ds_tiles(s, q0, q1, k0, bk, bk, 1);
        for (std::int64_t i = q0; i < q1; ++i) {
          sops.axpy_rows_f32(pdq + i * d, pk + k0 * d, d,
                             tiles.ds + (i - q0) * bk, bk, d);
        }
      }
    }
  });

  // Pass 2 — dK, dV: key blocks own disjoint dk/dv rows; query blocks are
  // walked serially in ascending order inside each chunk, and each key row
  // takes its tile column of P (for dV) or dS (for dK) in ascending query
  // order.
  kernels::parallel_for(k_blocks, 1, [&](std::int64_t kb0, std::int64_t kb1) {
    FlashScratch& s = flash_scratch();
    for (std::int64_t kb = kb0; kb < kb1; ++kb) {
      const std::int64_t k0 = kb * params.block_kv;
      const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
      for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
        const std::int64_t q1 = std::min(nq, q0 + params.block_q);
        const std::int64_t bq = q1 - q0;
        const Tiles tiles = p_ds_tiles(s, q0, q1, k0, bk, 1, bq);
        for (std::int64_t j = 0; j < bk; ++j) {
          sops.axpy_rows_f32(pdv + (k0 + j) * dv, pgo + q0 * dv, dv,
                             tiles.p + j * bq, bq, dv);
          sops.axpy_rows_f32(pdk + (k0 + j) * d, pq + q0 * d, d,
                             tiles.ds + j * bq, bq, d);
        }
      }
    }
  });

  return {std::move(dq), std::move(dk), std::move(dvt)};
}

void multihead_attention_forward_into(
    const Tensor& x, const MhaProjections& w, std::int64_t heads,
    bool use_flash, float scale, Tensor& q, Tensor& k, Tensor& v,
    Tensor& concat, std::span<AttentionBuffers> head_buffers, Tensor& out) {
  ORBIT2_REQUIRE(x.rank() == 2, "mha expects [L, D] tokens");
  const std::int64_t rows = x.dim(0), d = x.dim(1);
  ORBIT2_REQUIRE(heads >= 1 && d % heads == 0,
                 "head count " << heads << " must divide model dim " << d);
  ORBIT2_REQUIRE(!head_buffers.empty(), "mha needs head buffers");
  const Shape full{rows, d};
  ORBIT2_REQUIRE(q.shape() == full && k.shape() == full &&
                     v.shape() == full && concat.shape() == full &&
                     out.shape() == full,
                 "mha buffers must be " << full.to_string());
  const std::int64_t dh = d / heads;

  // y = in W + b, the bias broadcast over rows.
  auto project = [&](const Tensor& in, const Tensor& weight,
                     const Tensor& bias, Tensor& y) {
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, rows, d, d,
                  in.data().data(), weight.data().data(), y.data().data());
    add_table_rows_inplace(y, bias.data().data(), kAllRows);
  };
  project(x, w.wq, w.bq, q);
  project(x, w.wk, w.bk, k);
  project(x, w.wv, w.bv, v);

  for (std::int64_t hd = 0; hd < heads; ++hd) {
    AttentionBuffers& h =
        head_buffers[static_cast<std::size_t>(hd) % head_buffers.size()];
    copy_cols_into(q, hd * dh, h.q);
    copy_cols_into(k, hd * dh, h.k);
    copy_cols_into(v, hd * dh, h.v);
    if (use_flash) {
      attention_flash_forward_into(h.q, h.k, h.v, scale, h.out, h.saved);
    } else {
      attention_naive_forward_into(h.q, h.k, h.v, scale, h.saved, h.out);
    }
    paste_cols(h.out, hd * dh, concat);
  }

  project(concat, w.wo, w.bo, out);
}

}  // namespace orbit2
