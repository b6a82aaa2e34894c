// Shifted-window attention tests, all through the model's path
// (MultiHeadSelfAttention::forward_windowed, cyclic_shift_permutation +
// permute_rows): full-grid window equals global attention, window locality
// (no cross-window influence at shift 0), shifted windows re-couple
// boundaries (the Swin mechanism), cyclic shift inverse, and geometry
// validation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "attention/window_attention.hpp"
#include "autograd/nn.hpp"
#include "autograd/ops.hpp"
#include "core/rng.hpp"

namespace orbit2 {
namespace {

using autograd::Var;

/// Tokens [grid_h * grid_w, D] cyclically shifted by (dy, dx).
Tensor shift_tokens(const Tensor& tokens, std::int64_t grid_h,
                    std::int64_t grid_w, std::int64_t dy, std::int64_t dx) {
  return autograd::permute_rows(
             Var::constant(tokens),
             cyclic_shift_permutation(grid_h, grid_w, dy, dx))
      .value();
}

/// forward_windowed of `mha` with the naive kernel.
Tensor windowed(const autograd::MultiHeadSelfAttention& mha, const Tensor& x,
                const WindowAttentionSpec& spec) {
  return mha.forward_windowed(Var::constant(x), false, spec).value();
}

TEST(CyclicShift, InverseRecoversInput) {
  Rng rng(1);
  Tensor tokens = Tensor::randn(Shape{6 * 8, 3}, rng);
  Tensor shifted = shift_tokens(tokens, 6, 8, 2, 3);
  Tensor back = shift_tokens(shifted, 6, 8, -2, -3);
  for (std::int64_t i = 0; i < tokens.numel(); ++i) {
    EXPECT_EQ(back[i], tokens[i]);
  }
}

TEST(CyclicShift, MovesRowsAndColumns) {
  Tensor tokens = Tensor::zeros(Shape{4 * 4, 1});
  tokens[0] = 7.0f;  // token at (0,0)
  Tensor shifted = shift_tokens(tokens, 4, 4, 1, 2);
  EXPECT_EQ(shifted[1 * 4 + 2], 7.0f);
  EXPECT_EQ(shifted[0], 0.0f);
}

TEST(WindowAttention, FullGridWindowEqualsGlobalAttention) {
  // One window covering the whole 4x4 grid: the partition permutation is
  // the identity and the windowed layer runs exactly the global one.
  Rng rng(2);
  autograd::MultiHeadSelfAttention mha("mha", 8, 2, rng);
  const Tensor x = Tensor::randn(Shape{16, 8}, rng);
  for (const bool flash : {false, true}) {
    const Tensor global = mha.forward(Var::constant(x), flash).value();
    const Tensor full =
        mha.forward_windowed(Var::constant(x), flash, {4, 4, 4, 0}).value();
    ASSERT_EQ(full.shape(), global.shape());
    EXPECT_EQ(0, std::memcmp(full.data().data(), global.data().data(),
                             static_cast<std::size_t>(full.numel()) *
                                 sizeof(float)))
        << (flash ? "flash" : "naive");
  }
}

TEST(WindowAttention, NoCrossWindowInfluenceWithoutShift) {
  Rng rng(3);
  const std::int64_t gh = 8, gw = 8, d = 4;
  autograd::MultiHeadSelfAttention mha("mha", d, 2, rng);
  Tensor x = Tensor::randn(Shape{gh * gw, d}, rng);
  const WindowAttentionSpec spec{gh, gw, 4, 0};
  const Tensor base = windowed(mha, x, spec);

  // Perturb a token in the top-left window; outputs in the bottom-right
  // window must not change at all.
  Tensor x2 = x.clone();
  for (std::int64_t f = 0; f < d; ++f) x2.at(0, f) += 10.0f;
  const Tensor perturbed = windowed(mha, x2, spec);

  bool top_left_changed = false;
  for (std::int64_t f = 0; f < d; ++f) {
    top_left_changed |= std::fabs(perturbed.at(0, f) - base.at(0, f)) > 1e-6f;
  }
  EXPECT_TRUE(top_left_changed);
  // Bottom-right window: rows (4..7) x cols (4..7).
  for (std::int64_t y = 4; y < 8; ++y) {
    for (std::int64_t xc = 4; xc < 8; ++xc) {
      for (std::int64_t f = 0; f < d; ++f) {
        EXPECT_EQ(perturbed.at(y * gw + xc, f), base.at(y * gw + xc, f));
      }
    }
  }
}

TEST(WindowAttention, ShiftedWindowsCoupleAcrossBoundaries) {
  Rng rng(4);
  const std::int64_t gh = 8, gw = 8, d = 4;
  autograd::MultiHeadSelfAttention mha("mha", d, 2, rng);
  Tensor x = Tensor::randn(Shape{gh * gw, d}, rng);
  const WindowAttentionSpec unshifted{gh, gw, 4, 0};
  const WindowAttentionSpec shifted{gh, gw, 4, 2};

  // Perturbing a token next to the unshifted window boundary reaches the
  // other side only when the windows are shifted (they then share one).
  Tensor x2 = x.clone();
  for (std::int64_t f = 0; f < d; ++f) x2.at(3 * gw + 3, f) += 10.0f;
  auto cross_boundary_change = [&](const WindowAttentionSpec& spec) {
    const Tensor base = windowed(mha, x, spec);
    const Tensor perturbed = windowed(mha, x2, spec);
    float change = 0.0f;
    for (std::int64_t f = 0; f < d; ++f) {
      change += std::fabs(perturbed.at(4 * gw + 4, f) - base.at(4 * gw + 4, f));
    }
    return change;
  };
  EXPECT_EQ(cross_boundary_change(unshifted), 0.0f);
  EXPECT_GT(cross_boundary_change(shifted), 1e-6f);
}

TEST(WindowAttention, OutputShapeAndFiniteness) {
  Rng rng(5);
  const std::int64_t gh = 8, gw = 16;
  autograd::MultiHeadSelfAttention mha("mha", 6, 2, rng);
  const Tensor x = Tensor::randn(Shape{gh * gw, 6}, rng);
  const Tensor out = windowed(mha, x, {gh, gw, 8, 3});
  EXPECT_EQ(out.shape(), Shape({gh * gw, 6}));
  for (float v : out.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(WindowAttention, GeometryValidated) {
  Rng rng(6);
  autograd::MultiHeadSelfAttention mha("mha", 4, 2, rng);
  const Tensor x = Tensor::randn(Shape{64, 4}, rng);
  EXPECT_THROW(windowed(mha, x, {8, 8, 3, 0}), Error);   // 3 does not divide 8
  EXPECT_THROW(windowed(mha, x, {8, 8, 4, 4}), Error);   // shift == window
  EXPECT_THROW(windowed(mha, x, {4, 8, 4, 0}), Error);   // 32 cells, 64 tokens
  EXPECT_THROW(windowed(mha, x, {8, 8, 0, 0}), Error);   // empty window
  EXPECT_THROW(windowed(mha, x, {8, 8, 4, -1}), Error);  // negative shift
  EXPECT_THROW((void)window_partition_permutation({8, 8, 0, 0}), Error);
  EXPECT_NO_THROW(windowed(mha, x, {8, 8, 4, 3}));
}

}  // namespace
}  // namespace orbit2

// ---- differentiable windowed MHA -----------------------------------------

#include "autograd/optim.hpp"

namespace orbit2 {
namespace {

TEST(WindowedMha, FullGridWindowMatchesGlobalMha) {
  Rng rng(10);
  autograd::MultiHeadSelfAttention mha("mha", 8, 2, rng);
  Rng data_rng(11);
  Tensor x = Tensor::randn(Shape{16, 8}, data_rng);
  WindowAttentionSpec spec{4, 4, 4, 0};  // one window = whole grid
  const Tensor global =
      mha.forward(autograd::Var::constant(x), true).value();
  const Tensor windowed =
      mha.forward_windowed(autograd::Var::constant(x), true, spec).value();
  for (std::int64_t i = 0; i < global.numel(); ++i) {
    EXPECT_NEAR(global[i], windowed[i], 1e-5f) << i;
  }
}

TEST(WindowedMha, GradientsMatchFiniteDifference) {
  Rng rng(12);
  autograd::MultiHeadSelfAttention mha("mha", 4, 2, rng);
  auto x = std::make_shared<autograd::Parameter>(
      "x", Tensor::randn(Shape{16, 4}, rng, 0.5f));
  WindowAttentionSpec spec{4, 4, 2, 1};  // shifted 2x2 windows

  auto forward = [&] {
    return mha.forward_windowed(autograd::Var::parameter(x), false, spec);
  };
  x->zero_grad();
  for (const auto& p : mha.parameters()) p->zero_grad();
  autograd::backward(autograd::sum(forward()));
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < x->numel(); i += 5) {
    const float original = x->value[i];
    x->value[i] = original + eps;
    const float up = forward().value().sum();
    x->value[i] = original - eps;
    const float down = forward().value().sum();
    x->value[i] = original;
    EXPECT_NEAR(x->grad[i], (up - down) / (2 * eps), 3e-2f) << i;
  }
}

TEST(WindowedMha, PermutationHelpersRoundTrip) {
  const auto partition = window_partition_permutation({4, 8, 4, 0});
  const auto inverse = invert_permutation(partition);
  for (std::size_t i = 0; i < partition.size(); ++i) {
    EXPECT_EQ(inverse[static_cast<std::size_t>(partition[i])],
              static_cast<std::int64_t>(i));
  }
  // The shift permutation moves cell (y, x) to (y + 1, x + 3), wrapping.
  const auto shift_perm = cyclic_shift_permutation(4, 8, 1, 3);
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 8; ++x) {
      const std::int64_t to = ((y + 1) % 4) * 8 + (x + 3) % 8;
      EXPECT_EQ(shift_perm[static_cast<std::size_t>(to)], y * 8 + x);
    }
  }
}

}  // namespace
}  // namespace orbit2
