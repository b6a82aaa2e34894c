// Tests for the attention kernels: correctness of the naive reference,
// flash <-> naive parity (forward and backward) across a parameter sweep of
// shapes and block sizes, a bitwise sweep of the flash kernels against a
// per-element reference under every ISA and thread count, argument checks,
// and finite-difference gradient validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "attention/attention.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "tensor/ops.hpp"

namespace orbit2 {
namespace {

TEST(NaiveAttention, UniformScoresAverageValues) {
  // Q orthogonal to K rows -> all scores equal -> output = mean of V rows.
  Tensor q = Tensor::zeros(Shape{2, 4});
  Tensor k = Tensor::zeros(Shape{3, 4});
  Tensor v = Tensor::from_vector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = attention_naive_forward(q, k, v, 0.5f, nullptr);
  EXPECT_NEAR(out.at(0, 0), 3.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 1), 4.0f, 1e-5f);
  EXPECT_NEAR(out.at(1, 0), 3.0f, 1e-5f);
}

TEST(NaiveAttention, SharpAttentionSelectsValue) {
  // One K row strongly matches the query; output ~= its V row.
  Tensor q = Tensor::from_vector(Shape{1, 2}, {10.0f, 0.0f});
  Tensor k = Tensor::from_vector(Shape{2, 2}, {10.0f, 0.0f, -10.0f, 0.0f});
  Tensor v = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 7, 8, 9});
  Tensor out = attention_naive_forward(q, k, v, 1.0f, nullptr);
  EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-4f);
  EXPECT_NEAR(out.at(0, 2), 3.0f, 1e-4f);
}

TEST(NaiveAttention, RejectsRankMismatch) {
  EXPECT_THROW(attention_naive_forward(Tensor::zeros(Shape{2, 3}),
                                       Tensor::zeros(Shape{2, 4}),
                                       Tensor::zeros(Shape{2, 4}), 1.0f,
                                       nullptr),
               Error);
}

using FlashCase = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, std::int64_t>;

class FlashParity : public ::testing::TestWithParam<FlashCase> {};

TEST_P(FlashParity, ForwardAndBackwardMatchNaive) {
  const auto [nq, nk, d, block_q, block_kv] = GetParam();
  Rng rng(static_cast<std::uint64_t>(nq * 1000 + nk * 10 + d));
  Tensor q = Tensor::randn(Shape{nq, d}, rng);
  Tensor k = Tensor::randn(Shape{nk, d}, rng);
  Tensor v = Tensor::randn(Shape{nk, d}, rng);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  AttentionContext naive_ctx, flash_ctx;
  FlashParams params{block_q, block_kv};
  Tensor naive_out = attention_naive_forward(q, k, v, scale, &naive_ctx);
  Tensor flash_out = attention_flash_forward(q, k, v, scale, &flash_ctx, params);

  ASSERT_EQ(naive_out.shape(), flash_out.shape());
  for (std::int64_t i = 0; i < naive_out.numel(); ++i) {
    EXPECT_NEAR(naive_out[i], flash_out[i], 2e-5f) << "fwd elem " << i;
  }

  Tensor grad = Tensor::randn(Shape{nq, d}, rng);
  AttentionGrads g_naive = attention_naive_backward(naive_ctx, grad);
  AttentionGrads g_flash = attention_flash_backward(flash_ctx, grad, params);
  for (std::int64_t i = 0; i < g_naive.dq.numel(); ++i) {
    EXPECT_NEAR(g_naive.dq[i], g_flash.dq[i], 5e-4f) << "dq elem " << i;
  }
  for (std::int64_t i = 0; i < g_naive.dk.numel(); ++i) {
    EXPECT_NEAR(g_naive.dk[i], g_flash.dk[i], 5e-4f) << "dk elem " << i;
  }
  for (std::int64_t i = 0; i < g_naive.dv.numel(); ++i) {
    EXPECT_NEAR(g_naive.dv[i], g_flash.dv[i], 5e-4f) << "dv elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBlocks, FlashParity,
    ::testing::Values(
        // (nq, nk, d, block_q, block_kv)
        FlashCase{4, 4, 8, 64, 64},     // single block
        FlashCase{16, 16, 8, 4, 4},     // many blocks
        FlashCase{17, 23, 8, 4, 8},     // ragged blocks
        FlashCase{1, 64, 16, 8, 16},    // single query row
        FlashCase{64, 1, 16, 16, 8},    // single key row
        FlashCase{33, 47, 4, 5, 7},     // prime-ish everything
        FlashCase{128, 128, 32, 64, 64}));

TEST(FlashAttention, LargeScoresStayFinite) {
  // Scores around +-30 stress the online rescaling.
  Rng rng(7);
  Tensor q = Tensor::randn(Shape{8, 4}, rng, 5.0f);
  Tensor k = Tensor::randn(Shape{8, 4}, rng, 5.0f);
  Tensor v = Tensor::randn(Shape{8, 4}, rng);
  AttentionContext ctx;
  Tensor out = attention_flash_forward(q, k, v, 1.0f, &ctx, {2, 2});
  for (float val : out.data()) EXPECT_TRUE(std::isfinite(val));
  Tensor naive = attention_naive_forward(q, k, v, 1.0f, nullptr);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out[i], naive[i], 1e-4f);
  }
}

TEST(FlashAttention, ContextKindEnforced) {
  Rng rng(8);
  Tensor q = Tensor::randn(Shape{4, 4}, rng);
  AttentionContext naive_ctx, flash_ctx;
  attention_naive_forward(q, q, q, 1.0f, &naive_ctx);
  attention_flash_forward(q, q, q, 1.0f, &flash_ctx);
  Tensor g = Tensor::ones(Shape{4, 4});
  EXPECT_THROW(attention_flash_backward(naive_ctx, g), Error);
  EXPECT_THROW(attention_naive_backward(flash_ctx, g), Error);
}

TEST(NaiveAttention, BackwardMatchesFiniteDifference) {
  Rng rng(9);
  const std::int64_t n = 5, d = 3;
  Tensor q = Tensor::randn(Shape{n, d}, rng);
  Tensor k = Tensor::randn(Shape{n, d}, rng);
  Tensor v = Tensor::randn(Shape{n, d}, rng);
  Tensor g = Tensor::randn(Shape{n, d}, rng);
  const float scale = 0.7f;

  AttentionContext ctx;
  attention_naive_forward(q, k, v, scale, &ctx);
  AttentionGrads grads = attention_naive_backward(ctx, g);

  auto loss = [&](const Tensor& qq, const Tensor& kk, const Tensor& vv) {
    Tensor out = attention_naive_forward(qq, kk, vv, scale, nullptr);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) acc += static_cast<double>(out[i]) * g[i];
    return acc;
  };
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < q.numel(); i += 2) {
    Tensor qp = q.clone();
    qp[i] += eps;
    Tensor qm = q.clone();
    qm[i] -= eps;
    const double fd = (loss(qp, k, v) - loss(qm, k, v)) / (2 * eps);
    EXPECT_NEAR(grads.dq[i], static_cast<float>(fd), 2e-3f) << "dq " << i;
  }
  for (std::int64_t i = 0; i < k.numel(); i += 2) {
    Tensor kp = k.clone();
    kp[i] += eps;
    Tensor km = k.clone();
    km[i] -= eps;
    const double fd = (loss(q, kp, v) - loss(q, km, v)) / (2 * eps);
    EXPECT_NEAR(grads.dk[i], static_cast<float>(fd), 2e-3f) << "dk " << i;
  }
  for (std::int64_t i = 0; i < v.numel(); i += 2) {
    Tensor vp = v.clone();
    vp[i] += eps;
    Tensor vm = v.clone();
    vm[i] -= eps;
    const double fd = (loss(q, k, vp) - loss(q, k, vm)) / (2 * eps);
    EXPECT_NEAR(grads.dv[i], static_cast<float>(fd), 2e-3f) << "dv " << i;
  }
}

TEST(FlashAttention, CrossAttentionShapes) {
  // Nq != Nk and dv != d: the decoder-style case.
  Rng rng(10);
  Tensor q = Tensor::randn(Shape{6, 8}, rng);
  Tensor k = Tensor::randn(Shape{10, 8}, rng);
  Tensor v = Tensor::randn(Shape{10, 5}, rng);
  AttentionContext ctx;
  Tensor out = attention_flash_forward(q, k, v, 0.35f, &ctx, {4, 4});
  EXPECT_EQ(out.shape(), Shape({6, 5}));
  Tensor naive = attention_naive_forward(q, k, v, 0.35f, nullptr);
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_NEAR(out[i], naive[i], 1e-5f);
}

TEST(AttentionArgs, EmptyKeySetRejected) {
  // Softmax over zero keys has no normalizer: every entry point must refuse
  // it before touching memory.
  const Tensor q = Tensor::ones(Shape{3, 4});
  const Tensor k(Shape{0, 4});
  const Tensor v(Shape{0, 2});
  EXPECT_THROW(attention_naive_forward(q, k, v, 1.0f, nullptr), Error);
  Tensor scores(Shape{3, 0});
  Tensor out(Shape{3, 2});
  EXPECT_THROW(attention_naive_forward_into(q, k, v, 1.0f, scores, out),
               Error);
  EXPECT_THROW(attention_flash_forward(q, k, v, 1.0f, nullptr), Error);
  Tensor lse(Shape{3});
  EXPECT_THROW(attention_flash_forward_into(q, k, v, 1.0f, out, lse), Error);
  AttentionContext ctx;
  ctx.q = q;
  ctx.k = k;
  ctx.v = v;
  ctx.output = Tensor::zeros(Shape{3, 2});
  ctx.logsumexp = Tensor::zeros(Shape{3});
  ctx.used_flash = true;
  EXPECT_THROW(attention_flash_backward(ctx, Tensor::ones(Shape{3, 2})),
               Error);
}

TEST(AttentionArgs, FlashBackwardRejectsNonPositiveBlocks) {
  Rng rng(12);
  const Tensor q = Tensor::randn(Shape{5, 4}, rng);
  AttentionContext ctx;
  attention_flash_forward(q, q, q, 0.5f, &ctx);
  const Tensor g = Tensor::ones(Shape{5, 4});
  EXPECT_THROW(attention_flash_backward(ctx, g, {4, 0}), Error);
  EXPECT_THROW(attention_flash_backward(ctx, g, {0, 4}), Error);
  EXPECT_NO_THROW(attention_flash_backward(ctx, g, {4, 4}));
}

// ---- bitwise flash sweep ---------------------------------------------------

// Per-element reference of the flash kernels: one sequential double dot per
// score and per dP, and one axpy_f32 per (query, key) pair, walked serially
// in the block order the kernels pin. The kernels must match it bit for bit
// under every ISA and thread count.

struct FlashForwardRef {
  std::vector<float> out, lse;
};

FlashForwardRef reference_flash_forward(const Tensor& q, const Tensor& k,
                                        const Tensor& v, float scale,
                                        const FlashParams& params) {
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  FlashForwardRef ref;
  ref.out.assign(static_cast<std::size_t>(nq * dv), 0.0f);
  ref.lse.assign(static_cast<std::size_t>(nq), 0.0f);
  const simd::Ops& sops = simd::ops();
  std::vector<float> scores(static_cast<std::size_t>(params.block_kv));
  for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
    const std::int64_t q1 = std::min(nq, q0 + params.block_q);
    std::vector<float> row_max(static_cast<std::size_t>(q1 - q0),
                               -std::numeric_limits<float>::infinity());
    std::vector<float> row_sum(static_cast<std::size_t>(q1 - q0), 0.0f);
    for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
      const std::int64_t bk = std::min(nk, k0 + params.block_kv) - k0;
      for (std::int64_t i = q0; i < q1; ++i) {
        for (std::int64_t j = 0; j < bk; ++j) {
          double acc = 0.0;
          for (std::int64_t t = 0; t < d; ++t) {
            acc += static_cast<double>(pq[i * d + t]) * pk[(k0 + j) * d + t];
          }
          scores[static_cast<std::size_t>(j)] = static_cast<float>(acc) * scale;
        }
        float block_max = scores[0];
        for (std::int64_t j = 1; j < bk; ++j) {
          block_max = std::max(block_max, scores[static_cast<std::size_t>(j)]);
        }
        const std::size_t r = static_cast<std::size_t>(i - q0);
        const float old_max = row_max[r];
        const float new_max = std::max(old_max, block_max);
        const float correction =
            (old_max == -std::numeric_limits<float>::infinity())
                ? 0.0f
                : std::exp(old_max - new_max);
        float* orow = ref.out.data() + i * dv;
        sops.scale_f32(orow, correction, dv);
        row_sum[r] *= correction;
        for (std::int64_t j = 0; j < bk; ++j) {
          const float p =
              std::exp(scores[static_cast<std::size_t>(j)] - new_max);
          row_sum[r] += p;
          sops.axpy_f32(orow, pv + (k0 + j) * dv, p, dv);
        }
        row_max[r] = new_max;
      }
    }
    for (std::int64_t i = q0; i < q1; ++i) {
      const std::size_t r = static_cast<std::size_t>(i - q0);
      ORBIT2_CHECK(row_sum[r] > 0.0f, "reference: zero normalizer");
      sops.scale_f32(ref.out.data() + i * dv, 1.0f / row_sum[r], dv);
      ref.lse[static_cast<std::size_t>(i)] =
          row_max[r] + std::log(row_sum[r]);
    }
  }
  return ref;
}

AttentionGrads reference_flash_backward(const AttentionContext& ctx,
                                        const Tensor& grad_output,
                                        const FlashParams& params) {
  const std::int64_t nq = ctx.q.dim(0), nk = ctx.k.dim(0);
  const std::int64_t d = ctx.q.dim(1), dv = ctx.v.dim(1);
  const float* pq = ctx.q.data().data();
  const float* pk = ctx.k.data().data();
  const float* pv = ctx.v.data().data();
  const float* po = ctx.output.data().data();
  const float* pgo = grad_output.data().data();
  const float* plse = ctx.logsumexp.data().data();
  AttentionGrads g{Tensor::zeros(ctx.q.shape()), Tensor::zeros(ctx.k.shape()),
                   Tensor::zeros(ctx.v.shape())};
  float* pdq = g.dq.data().data();
  float* pdk = g.dk.data().data();
  float* pdv = g.dv.data().data();
  const simd::Ops& sops = simd::ops();

  std::vector<float> delta(static_cast<std::size_t>(nq));
  for (std::int64_t i = 0; i < nq; ++i) {
    double acc = 0.0;
    for (std::int64_t t = 0; t < dv; ++t) {
      acc += static_cast<double>(pgo[i * dv + t]) * po[i * dv + t];
    }
    delta[static_cast<std::size_t>(i)] = static_cast<float>(acc);
  }
  auto score = [&](std::int64_t i, std::int64_t j) {
    double acc = 0.0;
    for (std::int64_t t = 0; t < d; ++t) {
      acc += static_cast<double>(pq[i * d + t]) * pk[j * d + t];
    }
    return std::exp(static_cast<float>(acc) * ctx.scale - plse[i]);
  };
  auto dsoft = [&](std::int64_t i, std::int64_t j, float p) {
    double dp = 0.0;
    for (std::int64_t t = 0; t < dv; ++t) {
      dp += static_cast<double>(pgo[i * dv + t]) * pv[j * dv + t];
    }
    return p * (static_cast<float>(dp) - delta[static_cast<std::size_t>(i)]) *
           ctx.scale;
  };

  // dQ: query blocks, then key blocks ascending.
  for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
    const std::int64_t q1 = std::min(nq, q0 + params.block_q);
    for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
      const std::int64_t k1 = std::min(nk, k0 + params.block_kv);
      for (std::int64_t i = q0; i < q1; ++i) {
        for (std::int64_t j = k0; j < k1; ++j) {
          const float ds = dsoft(i, j, score(i, j));
          sops.axpy_f32(pdq + i * d, pk + j * d, ds, d);
        }
      }
    }
  }
  // dK, dV: key blocks, then query blocks ascending.
  for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
    const std::int64_t k1 = std::min(nk, k0 + params.block_kv);
    for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
      const std::int64_t q1 = std::min(nq, q0 + params.block_q);
      for (std::int64_t i = q0; i < q1; ++i) {
        for (std::int64_t j = k0; j < k1; ++j) {
          const float p = score(i, j);
          sops.axpy_f32(pdv + j * dv, pgo + i * dv, p, dv);
          sops.axpy_f32(pdk + j * d, pq + i * d, dsoft(i, j, p), d);
        }
      }
    }
  }
  return g;
}

/// Byte equality, except that a NaN matches any NaN payload.
void expect_same_bits(const float* got, const float* want, std::int64_t n,
                      const std::string& what) {
  for (std::int64_t i = 0; i < n; ++i) {
    const bool same = std::memcmp(got + i, want + i, sizeof(float)) == 0 ||
                      (std::isnan(got[i]) && std::isnan(want[i]));
    if (!same) {
      ADD_FAILURE() << what << " elem " << i << ": got " << got[i]
                    << ", want " << want[i];
      return;
    }
  }
}

void expect_same_bits(const Tensor& got, const std::vector<float>& want,
                      const std::string& what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), want.size()) << what;
  expect_same_bits(got.data().data(), want.data(), got.numel(), what);
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  expect_same_bits(got.data().data(), want.data().data(), got.numel(), what);
}

enum class Fill {
  kRandom,
  kLargeScores,
  kOverflowScores,
  kInfValues,
  kCancelling
};

struct SweepCase {
  std::int64_t nq, nk, d, dv, block_q, block_kv;
  Fill fill;
};

struct SweepInputs {
  Tensor q, k, v, grad;
  float scale;
};

SweepInputs make_inputs(const SweepCase& c, std::uint64_t seed) {
  Rng rng(seed);
  // kLargeScores: score standard deviation ~30 at scale 1.
  const float qk_std =
      c.fill == Fill::kLargeScores
          ? std::sqrt(30.0f / std::sqrt(static_cast<float>(c.d)))
          : 1.0f;
  SweepInputs in{Tensor::randn(Shape{c.nq, c.d}, rng, qk_std),
                 Tensor::randn(Shape{c.nk, c.d}, rng, qk_std),
                 Tensor::randn(Shape{c.nk, c.dv}, rng),
                 Tensor::randn(Shape{c.nq, c.dv}, rng),
                 c.fill == Fill::kLargeScores
                     ? 1.0f
                     : 1.0f / std::sqrt(static_cast<float>(c.d))};
  in.q[0] = -0.0f;
  in.k[in.k.numel() - 1] = -0.0f;
  in.v[0] = -0.0f;
  in.grad[in.grad.numel() - 1] = -0.0f;
  if (c.fill == Fill::kOverflowScores) {
    // Every third query row times key row nk/2 overflows the float cast of
    // its double dot to -Inf; its other scores (and every other row's)
    // stay finite, so the normalizer stays positive.
    in.k[(c.nk / 2) * c.d] = -1e30f;
    for (std::int64_t i = 0; i < c.nq; i += 3) in.q[i * c.d] = 1e10f;
  }
  if (c.fill == Fill::kCancelling) {
    // Columns 0 and 1 contribute +x*y and -x*y with x*y ~ 1e12 to every
    // score (and likewise to every dP). They cancel exactly only when they
    // are summed first, before the small terms, so the float of each dot
    // depends on the order in which its double sum runs.
    for (std::int64_t i = 0; i < c.nq; ++i) {
      const float y = 1e6f * (1.5f + in.q[i * c.d + c.d - 1]);
      in.q[i * c.d] = y;
      in.q[i * c.d + 1] = y;
      in.grad[i * c.dv] = y;
      in.grad[i * c.dv + 1] = y;
    }
    for (std::int64_t j = 0; j < c.nk; ++j) {
      const float x = 1e6f * (1.5f + in.k[j * c.d + c.d - 1]);
      in.k[j * c.d] = x;
      in.k[j * c.d + 1] = -x;
      in.v[j * c.dv] = x;
      in.v[j * c.dv + 1] = -x;
    }
  }
  if (c.fill == Fill::kInfValues) {
    in.v[in.v.numel() / 2] = std::numeric_limits<float>::infinity();
    in.v[in.v.numel() - 1] = -std::numeric_limits<float>::infinity();
    in.grad[in.grad.numel() / 3] = std::numeric_limits<float>::infinity();
  }
  return in;
}

/// Restores the active ISA and the kernel thread cap on scope exit.
class DispatchRestore {
 public:
  DispatchRestore() : isa_(simd::active_isa()) {}
  ~DispatchRestore() {
    simd::set_isa(isa_);
    kernels::set_max_threads(0);
  }

 private:
  simd::Isa isa_;
};

TEST(FlashBitwise, MatchesPerElementReferenceOnEveryIsaAndThreadCount) {
  const DispatchRestore restore;
  const SweepCase cases[] = {
      // (nq, nk, d, dv, block_q, block_kv, fill)
      {5, 9, 1, 3, 1, 1, Fill::kRandom},          // bk = 1, d = 1
      {13, 20, 16, 16, 7, 7, Fill::kRandom},      // ragged, 3 KV blocks
      {70, 130, 16, 8, 64, 64, Fill::kRandom},    // ragged 64-blocks
      {9, 15, 17, 5, 7, 1, Fill::kRandom},        // rescale on every key
      {20, 11, 33, 17, 1, 7, Fill::kRandom},      // single-row q blocks
      {33, 65, 33, 33, 64, 7, Fill::kRandom},     // 10 KV blocks
      {3, 64, 17, 1, 7, 64, Fill::kRandom},       // dv = 1
      {12, 22, 16, 16, 7, 7, Fill::kLargeScores},
      {17, 40, 1, 4, 7, 1, Fill::kLargeScores},
      {15, 21, 17, 9, 7, 7, Fill::kOverflowScores},
      {6, 14, 1, 2, 1, 64, Fill::kOverflowScores},
      {10, 23, 16, 16, 7, 7, Fill::kCancelling},
      {9, 30, 33, 17, 64, 64, Fill::kCancelling},
      {11, 19, 16, 16, 7, 7, Fill::kInfValues},
      {8, 9, 33, 3, 64, 1, Fill::kInfValues},
  };
  std::uint64_t seed = 500;
  for (const SweepCase& c : cases) {
    const SweepInputs in = make_inputs(c, seed++);
    const FlashParams params{c.block_q, c.block_kv};
    const std::string shape =
        "nq=" + std::to_string(c.nq) + " nk=" + std::to_string(c.nk) +
        " d=" + std::to_string(c.d) + " dv=" + std::to_string(c.dv) +
        " bq=" + std::to_string(c.block_q) +
        " bkv=" + std::to_string(c.block_kv) +
        " fill=" + std::to_string(static_cast<int>(c.fill));

    simd::set_isa(simd::Isa::kScalar);
    const FlashForwardRef ref =
        reference_flash_forward(in.q, in.k, in.v, in.scale, params);
    AttentionContext ref_ctx;
    ref_ctx.q = in.q;
    ref_ctx.k = in.k;
    ref_ctx.v = in.v;
    ref_ctx.output = Tensor::from_vector(Shape{c.nq, c.dv}, ref.out);
    ref_ctx.logsumexp = Tensor::from_vector(Shape{c.nq}, ref.lse);
    ref_ctx.scale = in.scale;
    ref_ctx.used_flash = true;
    const AttentionGrads ref_grads =
        reference_flash_backward(ref_ctx, in.grad, params);

    for (const simd::Isa isa : simd::supported_isas()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        simd::set_isa(isa);
        kernels::set_max_threads(threads);
        const std::string what = shape + " isa=" + simd::isa_name(isa) +
                                 " threads=" + std::to_string(threads);
        AttentionContext ctx;
        const Tensor out =
            attention_flash_forward(in.q, in.k, in.v, in.scale, &ctx, params);
        expect_same_bits(out, ref.out, what + " out");
        expect_same_bits(ctx.logsumexp, ref.lse, what + " lse");

        Tensor out_into(Shape{c.nq, c.dv});
        Tensor lse_into(Shape{c.nq});
        out_into.fill(7.0f);  // the kernel must overwrite stale contents
        attention_flash_forward_into(in.q, in.k, in.v, in.scale, out_into,
                                     lse_into, params);
        expect_same_bits(out_into, ref.out, what + " out_into");
        expect_same_bits(lse_into, ref.lse, what + " lse_into");

        const AttentionGrads g = attention_flash_backward(ctx, in.grad, params);
        expect_same_bits(g.dq, ref_grads.dq, what + " dq");
        expect_same_bits(g.dk, ref_grads.dk, what + " dk");
        expect_same_bits(g.dv, ref_grads.dv, what + " dv");
      }
    }
  }
}

TEST(FlashBitwise, InfiniteScoreFailsLikeTheReference) {
  // A +Inf score makes the normalizer NaN; the kernels and the reference
  // both refuse the row instead of returning garbage.
  const DispatchRestore restore;
  Rng rng(31);
  Tensor q = Tensor::randn(Shape{4, 3}, rng);
  const Tensor k = Tensor::ones(Shape{6, 3});
  const Tensor v = Tensor::randn(Shape{6, 2}, rng);
  q[3] = std::numeric_limits<float>::infinity();
  const FlashParams params{2, 4};
  simd::set_isa(simd::Isa::kScalar);
  EXPECT_THROW(reference_flash_forward(q, k, v, 1.0f, params), Error);
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    EXPECT_THROW(attention_flash_forward(q, k, v, 1.0f, nullptr, params),
                 Error)
        << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace orbit2
