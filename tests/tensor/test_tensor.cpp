// Unit tests for the tensor substrate: construction, elementwise algebra,
// reductions, shape surgery, matmul variants, conv2d kernels, resampling,
// and the row-wise numeric kernels (softmax / layernorm / GELU).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/resize.hpp"
#include "tensor/tensor.hpp"

namespace orbit2 {
namespace {

// ---- construction / access ---------------------------------------------

TEST(Tensor, ZerosAndShape) {
  Tensor t = Tensor::zeros(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromVectorAndAt) {
  Tensor t = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
}

TEST(Tensor, FromVectorSizeMismatchThrows) {
  EXPECT_THROW(Tensor::from_vector(Shape{2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor v = t.reshape(Shape{3, 2});
  EXPECT_TRUE(t.shares_storage_with(v));
  v.at(0, 0) = 99.0f;
  EXPECT_EQ(t.at(0, 0), 99.0f);
}

TEST(Tensor, ReshapeNumelMismatchThrows) {
  Tensor t = Tensor::zeros(Shape{2, 3});
  EXPECT_THROW(t.reshape(Shape{4, 2}), Error);
}

TEST(Tensor, CloneIsIndependent) {
  Tensor t = Tensor::ones(Shape{4});
  Tensor c = t.clone();
  EXPECT_FALSE(t.shares_storage_with(c));
  c[0] = 5.0f;
  EXPECT_EQ(t[0], 1.0f);
}

TEST(Tensor, ItemRequiresSingleElement) {
  EXPECT_EQ(Tensor::scalar(3.5f).item(), 3.5f);
  EXPECT_THROW(Tensor::zeros(Shape{2}).item(), Error);
}

// ---- elementwise -----------------------------------------------------

TEST(Tensor, AddSubMulDiv) {
  Tensor a = Tensor::from_vector(Shape{4}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector(Shape{4}, {4, 3, 2, 1});
  EXPECT_EQ(a.add(b).at(0), 5.0f);
  EXPECT_EQ(a.sub(b).at(3), 3.0f);
  EXPECT_EQ(a.mul(b).at(1), 6.0f);
  EXPECT_EQ(a.div(b).at(2), 1.5f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros(Shape{2});
  Tensor b = Tensor::zeros(Shape{3});
  EXPECT_THROW(a.add(b), Error);
}

TEST(Tensor, InplaceOps) {
  Tensor a = Tensor::from_vector(Shape{3}, {1, 2, 3});
  Tensor b = Tensor::ones(Shape{3});
  a.add_inplace(b);
  EXPECT_EQ(a.at(2), 4.0f);
  a.scale_inplace(2.0f);
  EXPECT_EQ(a.at(0), 4.0f);
  a.axpy_inplace(0.5f, b);
  EXPECT_EQ(a.at(0), 4.5f);
}

TEST(Tensor, MapAppliesFunction) {
  Tensor a = Tensor::from_vector(Shape{3}, {1, 4, 9});
  Tensor r = a.map([](float x) { return std::sqrt(x); });
  EXPECT_FLOAT_EQ(r.at(1), 2.0f);
}

// ---- reductions -----------------------------------------------------

TEST(Tensor, Reductions) {
  Tensor a = Tensor::from_vector(Shape{2, 2}, {1, -2, 3, 4});
  EXPECT_FLOAT_EQ(a.sum(), 6.0f);
  EXPECT_FLOAT_EQ(a.mean(), 1.5f);
  EXPECT_FLOAT_EQ(a.min(), -2.0f);
  EXPECT_FLOAT_EQ(a.max(), 4.0f);
  EXPECT_FLOAT_EQ(a.sum_squares(), 30.0f);
  EXPECT_FLOAT_EQ(a.abs_max(), 4.0f);
}

TEST(Tensor, SumIsStableOnLongVectors) {
  Tensor a = Tensor::full(Shape{1000000}, 0.1f);
  EXPECT_NEAR(a.sum(), 100000.0f, 1.0f);
}

// ---- slicing / concat --------------------------------------------------

TEST(Tensor, SliceAxis0) {
  Tensor a = Tensor::from_vector(Shape{3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = a.slice(0, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
}

TEST(Tensor, SliceAxis1) {
  Tensor a = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = a.slice(1, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_EQ(s.at(0, 0), 2.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
}

TEST(Tensor, SliceOutOfRangeThrows) {
  Tensor a = Tensor::zeros(Shape{2, 2});
  EXPECT_THROW(a.slice(0, 1, 2), Error);
  EXPECT_THROW(a.slice(2, 0, 1), Error);
}

TEST(Tensor, ConcatRoundTripsSlice) {
  Tensor a = Tensor::from_vector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_vector(Shape{1, 2}, {5, 6});
  Tensor c = Tensor::concat(0, {a, b});
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.at(2, 1), 6.0f);
  Tensor back = c.slice(0, 0, 2);
  EXPECT_EQ(back.at(1, 1), 4.0f);
}

TEST(Tensor, ConcatAxis1) {
  Tensor a = Tensor::from_vector(Shape{2, 1}, {1, 2});
  Tensor b = Tensor::from_vector(Shape{2, 2}, {3, 4, 5, 6});
  Tensor c = Tensor::concat(1, {a, b});
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.at(0, 0), 1.0f);
  EXPECT_EQ(c.at(0, 1), 3.0f);
  EXPECT_EQ(c.at(1, 2), 6.0f);
}

TEST(Tensor, Transpose2d) {
  Tensor a = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = a.transpose2d();
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_EQ(t.at(0, 1), 4.0f);
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

// ---- matmul ---------------------------------------------------------------

TEST(Matmul, SmallKnownResult) {
  Tensor a = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor::zeros(Shape{2, 3}), Tensor::zeros(Shape{2, 2})),
               Error);
}

TEST(Matmul, TransposeVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{5, 7}, rng);
  Tensor b = Tensor::randn(Shape{9, 7}, rng);
  Tensor nt = matmul_nt(a, b);
  Tensor ref = matmul(a, b.transpose2d());
  ASSERT_EQ(nt.shape(), ref.shape());
  for (std::int64_t i = 0; i < nt.numel(); ++i) EXPECT_NEAR(nt[i], ref[i], 1e-4f);

  Tensor c = Tensor::randn(Shape{7, 5}, rng);
  Tensor d = Tensor::randn(Shape{7, 9}, rng);
  Tensor tn = matmul_tn(c, d);
  Tensor ref2 = matmul(c.transpose2d(), d);
  for (std::int64_t i = 0; i < tn.numel(); ++i) EXPECT_NEAR(tn[i], ref2[i], 1e-4f);
}

TEST(Matmul, BlockedMatchesNaiveOnLargerSizes) {
  Rng rng(4);
  Tensor a = Tensor::randn(Shape{130, 70}, rng);
  Tensor b = Tensor::randn(Shape{70, 90}, rng);
  Tensor c = matmul(a, b);
  // Naive reference.
  for (std::int64_t i = 0; i < 130; i += 37) {
    for (std::int64_t j = 0; j < 90; j += 29) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < 70; ++k) acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), static_cast<float>(acc), 1e-3f);
    }
  }
}

TEST(Matmul, BatchedMatchesPerSlice) {
  Rng rng(5);
  Tensor a = Tensor::randn(Shape{3, 4, 6}, rng);
  Tensor b = Tensor::randn(Shape{3, 6, 5}, rng);
  Tensor c = bmm(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 4, 5}));
  for (std::int64_t batch = 0; batch < 3; ++batch) {
    Tensor as = a.slice(0, batch, 1).reshape(Shape{4, 6});
    Tensor bs = b.slice(0, batch, 1).reshape(Shape{6, 5});
    Tensor ref = matmul(as, bs);
    for (std::int64_t i = 0; i < 4; ++i) {
      for (std::int64_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(c.at(batch, i, j), ref.at(i, j), 1e-4f);
      }
    }
  }
}

// ---- conv2d -------------------------------------------------------------

TEST(Conv2d, IdentityKernelPreservesInput) {
  Rng rng(6);
  Tensor x = Tensor::randn(Shape{1, 5, 5}, rng);
  Tensor w = Tensor::zeros(Shape{1, 1, 3, 3});
  w.at(0, 0, 1, 1) = 1.0f;
  Tensor b = Tensor::zeros(Shape{1});
  Tensor y = conv2d_forward(x, w, b, {3, 3, 1, 1});
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, KnownBoxFilter) {
  Tensor x = Tensor::ones(Shape{1, 3, 3});
  Tensor w = Tensor::ones(Shape{1, 1, 3, 3});
  Tensor b = Tensor::zeros(Shape{1});
  Tensor y = conv2d_forward(x, w, b, {3, 3, 1, 1});
  EXPECT_FLOAT_EQ(y.at(0, 1, 1), 9.0f);  // interior: all 9 taps
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);  // corner: 4 valid taps
}

TEST(Conv2d, StrideAndOutputDims) {
  EXPECT_EQ(conv2d_out_dim(8, 3, 2, 1), 4);
  EXPECT_EQ(conv2d_out_dim(7, 3, 1, 0), 5);
  Tensor x = Tensor::ones(Shape{2, 8, 8});
  Rng rng(7);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  Tensor b = Tensor::zeros(Shape{3});
  Tensor y = conv2d_forward(x, w, b, {3, 3, 2, 1});
  EXPECT_EQ(y.shape(), Shape({3, 4, 4}));
}

TEST(Conv2d, BiasApplied) {
  Tensor x = Tensor::zeros(Shape{1, 2, 2});
  Tensor w = Tensor::zeros(Shape{2, 1, 1, 1});
  Tensor b = Tensor::from_vector(Shape{2}, {1.5f, -2.5f});
  Tensor y = conv2d_forward(x, w, b, {1, 1, 1, 0});
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(1, 1, 1), -2.5f);
}

TEST(Conv2d, BackwardInputMatchesFiniteDifference) {
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{2, 4, 4}, rng);
  Tensor w = Tensor::randn(Shape{2, 2, 3, 3}, rng, 0.5f);
  Tensor b = Tensor::randn(Shape{2}, rng);
  const Conv2dSpec spec{3, 3, 1, 1};

  // Loss = sum(conv(x)); dL/dy = ones.
  Tensor y = conv2d_forward(x, w, b, spec);
  Tensor ones = Tensor::ones(y.shape());
  Tensor gi = conv2d_backward_input(ones, w, 4, 4, spec);

  const float eps = 1e-2f;
  for (std::int64_t idx = 0; idx < x.numel(); idx += 7) {
    Tensor xp = x.clone();
    xp[idx] += eps;
    Tensor xm = x.clone();
    xm[idx] -= eps;
    const float fd = (conv2d_forward(xp, w, b, spec).sum() -
                      conv2d_forward(xm, w, b, spec).sum()) /
                     (2 * eps);
    EXPECT_NEAR(gi[idx], fd, 2e-2f) << "at " << idx;
  }
}

TEST(Conv2d, BackwardParamsMatchFiniteDifference) {
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{2, 4, 4}, rng);
  Tensor w = Tensor::randn(Shape{2, 2, 3, 3}, rng, 0.5f);
  Tensor b = Tensor::randn(Shape{2}, rng);
  const Conv2dSpec spec{3, 3, 1, 1};

  Tensor y = conv2d_forward(x, w, b, spec);
  Tensor ones = Tensor::ones(y.shape());
  Tensor gw = Tensor::zeros(w.shape());
  Tensor gb = Tensor::zeros(b.shape());
  conv2d_backward_params(ones, x, gw, gb, spec);

  const float eps = 1e-2f;
  for (std::int64_t idx = 0; idx < w.numel(); idx += 5) {
    Tensor wp = w.clone();
    wp[idx] += eps;
    Tensor wm = w.clone();
    wm[idx] -= eps;
    const float fd = (conv2d_forward(x, wp, b, spec).sum() -
                      conv2d_forward(x, wm, b, spec).sum()) /
                     (2 * eps);
    EXPECT_NEAR(gw[idx], fd, 2e-2f) << "at " << idx;
  }
  for (std::int64_t idx = 0; idx < b.numel(); ++idx) {
    // dL/db = number of output pixels per channel.
    EXPECT_FLOAT_EQ(gb[idx], 16.0f);
  }
}

// ---- conv2d bitwise sweep -------------------------------------------------
//
// The per-element loops below are the reference for the row kernels in
// tensor/conv.cpp. Every output sums double(x) * double(w) over its valid
// taps in (channel, ky, kx) order and never visits a padding tap.

void reference_conv2d_forward(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, const Conv2dSpec& spec,
                              Tensor& out) {
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = out.dim(0), oh = out.dim(1), ow = out.dim(2);
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = bias[oc];
        const std::int64_t iy0 = oy * spec.stride - spec.pad;
        const std::int64_t ix0 = ox * spec.stride - spec.pad;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const float* in_c = in + ic * h * w;
          const float* wt_c =
              wt + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= w) continue;
              acc += static_cast<double>(in_c[iy * w + ix]) *
                     wt_c[ky * spec.kernel_w + kx];
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  }
}

void reference_conv2d_backward_input(const Tensor& grad_output,
                                     const Tensor& weight,
                                     const Conv2dSpec& spec,
                                     Tensor& grad_input) {
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = grad_input.dim(0);
  const std::int64_t in_h = grad_input.dim(1), in_w = grad_input.dim(2);
  const float* go = grad_output.data().data();
  const float* wt = weight.data().data();
  for (std::int64_t ic = 0; ic < cin; ++ic) {
    for (std::int64_t iy = 0; iy < in_h; ++iy) {
      for (std::int64_t ix = 0; ix < in_w; ++ix) {
        double acc = 0.0;
        for (std::int64_t oc = 0; oc < cout; ++oc) {
          const float* go_c = go + oc * oh * ow;
          const float* wt_c =
              wt + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t ty = iy + spec.pad - ky;
            if (ty < 0 || ty % spec.stride != 0) continue;
            const std::int64_t oy = ty / spec.stride;
            if (oy >= oh) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t tx = ix + spec.pad - kx;
              if (tx < 0 || tx % spec.stride != 0) continue;
              const std::int64_t ox = tx / spec.stride;
              if (ox >= ow) continue;
              acc += static_cast<double>(go_c[oy * ow + ox]) *
                     wt_c[ky * spec.kernel_w + kx];
            }
          }
        }
        grad_input[(ic * in_h + iy) * in_w + ix] = static_cast<float>(acc);
      }
    }
  }
}

void reference_conv2d_backward_params(const Tensor& grad_output,
                                      const Tensor& input,
                                      const Conv2dSpec& spec,
                                      Tensor& grad_weight, Tensor& grad_bias) {
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const float* go = grad_output.data().data();
  const float* in = input.data().data();
  float* gw = grad_weight.data().data();
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    double bias_acc = 0.0;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float g = go[(oc * oh + oy) * ow + ox];
        bias_acc += g;
        const std::int64_t iy0 = oy * spec.stride - spec.pad;
        const std::int64_t ix0 = ox * spec.stride - spec.pad;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const float* in_c = in + ic * h * w;
          float* gw_c = gw + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= w) continue;
              gw_c[ky * spec.kernel_w + kx] += g * in_c[iy * w + ix];
            }
          }
        }
      }
    }
    grad_bias[oc] += static_cast<float>(bias_acc);
  }
}

/// Byte-equal, except that a NaN matches any NaN: the simd contract pins
/// arithmetic, not which NaN payload survives when two NaNs meet.
void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got[i], e = want[i];
    if (std::isnan(g) && std::isnan(e)) continue;
    if (std::memcmp(&g, &e, sizeof(float)) != 0 && mismatches++ == 0) {
      ADD_FAILURE() << what << ": first mismatch at " << i << ": got " << g
                    << ", want " << e;
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
}

/// Runs every conv kernel on one shape under every ISA at 1 and 4 threads
/// and compares bits against the per-element loops. Non-finite values and
/// -0 sit in grad_output and the input at border and interior pixels. An
/// interior special reaches every weight of its channel, so the specials
/// keep to the first channels and the last input and output channels stay
/// finite: a kernel that multiplied a padding tap by zero (g * 0 = NaN for
/// an infinite g, where the reference skips the tap) or folded taps outside
/// a pixel's patch shows up there as a value the reference does not have.
void expect_conv_kernels_match(std::int64_t cin, std::int64_t cout,
                               std::int64_t h, std::int64_t w,
                               const Conv2dSpec& spec, std::uint64_t seed) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::int64_t k = spec.kernel_h;
  Rng rng(seed);
  Tensor x = Tensor::randn(Shape{cin, h, w}, rng);
  x[0] = -0.0f;
  // Input channel 0: NaN inside the image. The infinities go on the first
  // and last rows of channel 1 when a third channel stays clean.
  const std::int64_t inf_channel = cin >= 3 ? 1 : 0;
  x.at(0, h / 2, w / 2) = nan;
  x.at(inf_channel, 0, 0) = inf;
  x.at(inf_channel, h - 1, w - 1) = -inf;
  x.at(cin - 1, h / 2, (w - 1) / 2) = -0.0f;
  Tensor wt = Tensor::randn(Shape{cout, cin, k, k}, rng, 0.5f);
  // Corner taps are padding taps for border outputs whenever pad > 0: a
  // kernel that multiplied them by zero would turn those outputs into NaN
  // where the reference stays finite. The last output and input channels
  // see only finite taps.
  const std::int64_t wo = cout >= 3 ? 1 : 0, wi = cin >= 3 ? 1 : 0;
  wt.at(0, 0, 0, 0) = nan;
  wt.at(wo, wi, k - 1, k - 1) = inf;
  wt.at(wo, 0, 0, k - 1) = -inf;
  wt.at(cout - 1, cin - 1, k / 2, 0) = -0.0f;
  Tensor b = Tensor::randn(Shape{cout}, rng);
  b[cout - 1] = -0.0f;
  const std::int64_t oh = conv2d_out_dim(h, k, spec.stride, spec.pad);
  const std::int64_t ow = conv2d_out_dim(w, k, spec.stride, spec.pad);
  Tensor go = Tensor::randn(Shape{cout, oh, ow}, rng);
  go[0] = -0.0f;
  // Output channel 0: +Inf at a corner pixel. Channel 1: NaN at the
  // opposite corner, whose padding taps keep their weights finite in the
  // reference. -Inf inside the grid goes to channel 2 when a fourth
  // channel stays clean; -0 on the last channel's top row.
  go.at(0, 0, 0) = inf;
  go.at(1 % cout, oh - 1, ow - 1) = nan;
  go.at(cout >= 4 ? 2 : 0, oh / 2, ow / 2) = -inf;
  go.at(cout - 1, 0, (ow - 1) / 2) = -0.0f;
  const Tensor gb_init = Tensor::randn(b.shape(), rng);

  Tensor want_y(Shape{cout, oh, ow});
  reference_conv2d_forward(x, wt, b, spec, want_y);
  Tensor want_gi(Shape{cin, h, w});
  reference_conv2d_backward_input(go, wt, spec, want_gi);
  // The autograd op accumulates into fresh zeros; callers may also pass
  // a running gradient.
  const Tensor gw_inits[] = {Tensor::randn(wt.shape(), rng),
                             Tensor::zeros(wt.shape())};
  std::vector<Tensor> want_gw, want_gb;
  for (const Tensor& gw_init : gw_inits) {
    want_gw.push_back(gw_init.clone());
    want_gb.push_back(gb_init.clone());
    reference_conv2d_backward_params(go, x, spec, want_gw.back(),
                                     want_gb.back());
  }

  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    for (const std::size_t threads : {1u, 4u}) {
      kernels::set_max_threads(threads);
      const std::string what =
          std::string("isa=") + simd::isa_name(isa) +
          " threads=" + std::to_string(threads) + " " + std::to_string(cin) +
          "->" + std::to_string(cout) + " at " + std::to_string(h) + "x" +
          std::to_string(w) + " k=" + std::to_string(k) +
          " pad=" + std::to_string(spec.pad) +
          " stride=" + std::to_string(spec.stride);
      expect_same_bits(conv2d_forward(x, wt, b, spec), want_y,
                       "forward " + what);
      expect_same_bits(conv2d_backward_input(go, wt, h, w, spec), want_gi,
                       "backward_input " + what);
      for (std::size_t i = 0; i < want_gw.size(); ++i) {
        const std::string init = i == 0 ? " gw_init=random" : " gw_init=+0";
        Tensor gw = gw_inits[i].clone();
        Tensor gb = gb_init.clone();
        conv2d_backward_params(go, x, gw, gb, spec);
        expect_same_bits(gw, want_gw[i],
                         "backward_params weight " + what + init);
        expect_same_bits(gb, want_gb[i],
                         "backward_params bias " + what + init);
      }
    }
  }
}

TEST(Conv2d, RowKernelsMatchPerElementLoopsBitwiseOnEveryIsaAndThreadCount) {
  const simd::Isa saved_isa = simd::active_isa();
  std::uint64_t seed = 40;
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t pad : {0, 1, 2}) {
      for (const std::int64_t stride : {1, 2}) {
        // Widths: one column, odd, and past the 256-column accumulator
        // block at both strides.
        for (const std::int64_t w : {1, 7, 301, 530}) {
          const std::int64_t h = 6;
          if (w + 2 * pad < k || h + 2 * pad < k) continue;
          expect_conv_kernels_match(3, 3, h, w, Conv2dSpec{k, k, stride, pad},
                                    seed++);
        }
      }
    }
  }
  // Reslim's residual convs: 2 -> 2 at the 48x80 output tile, 8 -> 8 and
  // 8 -> 2 at the 12x20 input tile.
  const Conv2dSpec reslim{3, 3, 1, 1};
  expect_conv_kernels_match(2, 2, 48, 80, reslim, seed++);
  expect_conv_kernels_match(8, 8, 12, 20, reslim, seed++);
  expect_conv_kernels_match(8, 2, 12, 20, reslim, seed++);
  kernels::set_max_threads(0);
  simd::set_isa(saved_isa);
}

// ---- resize / coarsen ----------------------------------------------------

TEST(Resize, BilinearPreservesConstantField) {
  Tensor x = Tensor::full(Shape{2, 4, 4}, 3.25f);
  Tensor y = resize_bilinear(x, 8, 8);
  for (float v : y.data()) EXPECT_FLOAT_EQ(v, 3.25f);
}

TEST(Resize, BilinearIdentityAtSameSize) {
  Rng rng(10);
  Tensor x = Tensor::randn(Shape{1, 5, 7}, rng);
  Tensor y = resize_bilinear(x, 5, 7);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Resize, BilinearBackwardIsAdjoint) {
  // <R x, y> == <x, R^T y> for the linear operator R.
  Rng rng(11);
  Tensor x = Tensor::randn(Shape{1, 4, 4}, rng);
  Tensor y = Tensor::randn(Shape{1, 8, 8}, rng);
  Tensor rx = resize_bilinear(x, 8, 8);
  Tensor rty = resize_bilinear_backward(y, 4, 4);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < rx.numel(); ++i) lhs += static_cast<double>(rx[i]) * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * rty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Resize, NearestExactUpscale) {
  Tensor x = Tensor::from_vector(Shape{1, 2, 2}, {1, 2, 3, 4});
  Tensor y = resize_nearest(x, 4, 4);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 3), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3, 3), 4.0f);
}

TEST(Coarsen, AreaAverageExact) {
  Tensor x = Tensor::from_vector(Shape{1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = coarsen_area(x, 2);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), (1 + 2 + 5 + 6) / 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1), (3 + 4 + 7 + 8) / 4.0f);
}

TEST(Coarsen, IndivisibleThrows) {
  EXPECT_THROW(coarsen_area(Tensor::zeros(Shape{1, 5, 4}), 2), Error);
}

TEST(Coarsen, InverseOfConstantUpsample) {
  Rng rng(12);
  Tensor x = Tensor::randn(Shape{2, 3, 3}, rng);
  Tensor up = resize_nearest(x, 9, 9);
  Tensor back = coarsen_area(up, 3);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(back[i], x[i], 1e-6f);
}

// ---- row kernels ---------------------------------------------------------

TEST(Softmax, RowsSumToOne) {
  Rng rng(13);
  Tensor x = Tensor::randn(Shape{5, 9}, rng, 3.0f);
  Tensor y = softmax_rows(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 9; ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      s += y.at(r, c);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor x = Tensor::from_vector(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = softmax_rows(x);
  for (std::int64_t c = 0; c < 3; ++c) EXPECT_NEAR(y.at(0, c), 1.0f / 3, 1e-6f);
}

TEST(Softmax, RejectsZeroWidthRows) {
  // A row with no columns has no maximum; reading x[0] would run past the
  // end of the buffer.
  Tensor x(Shape{2, 0});
  Tensor y(Shape{2, 0});
  EXPECT_THROW(softmax_rows(x), Error);
  EXPECT_THROW(softmax_rows_into(x, y), Error);
  Tensor none(Shape{0, 0});
  EXPECT_NO_THROW(softmax_rows(none));
}

TEST(Softmax, BackwardMatchesFiniteDifference) {
  Rng rng(14);
  Tensor x = Tensor::randn(Shape{3, 4}, rng);
  Tensor g = Tensor::randn(Shape{3, 4}, rng);
  Tensor y = softmax_rows(x);
  Tensor gx = softmax_rows_backward(y, g);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x.clone();
    xp[i] += eps;
    Tensor xm = x.clone();
    xm[i] -= eps;
    const Tensor yp = softmax_rows(xp);
    const Tensor ym = softmax_rows(xm);
    double fd = 0.0;
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      fd += static_cast<double>(yp[j] - ym[j]) / (2 * eps) * g[j];
    }
    EXPECT_NEAR(gx[i], static_cast<float>(fd), 1e-3f);
  }
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(15);
  Tensor x = Tensor::randn(Shape{4, 32}, rng, 5.0f);
  Tensor gamma = Tensor::ones(Shape{32});
  Tensor beta = Tensor::zeros(Shape{32});
  Tensor y = layernorm_rows(x, gamma, beta, 1e-5f, nullptr, nullptr);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 32; ++c) mean += y.at(r, c);
    mean /= 32;
    for (std::int64_t c = 0; c < 32; ++c) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  Tensor x = Tensor::from_vector(Shape{1, 2}, {-1.0f, 1.0f});
  Tensor gamma = Tensor::from_vector(Shape{2}, {2.0f, 2.0f});
  Tensor beta = Tensor::from_vector(Shape{2}, {10.0f, 10.0f});
  Tensor y = layernorm_rows(x, gamma, beta, 1e-8f, nullptr, nullptr);
  EXPECT_NEAR(y.at(0, 0), 10.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 1), 10.0f + 2.0f, 1e-3f);
}

TEST(LayerNorm, BackwardMatchesFiniteDifference) {
  Rng rng(16);
  Tensor x = Tensor::randn(Shape{3, 8}, rng);
  Tensor gamma = Tensor::randn(Shape{8}, rng, 0.5f).add_scalar(1.0f);
  Tensor beta = Tensor::randn(Shape{8}, rng, 0.5f);
  Tensor g = Tensor::randn(Shape{3, 8}, rng);

  Tensor mean, inv_std;
  Tensor y = layernorm_rows(x, gamma, beta, 1e-5f, &mean, &inv_std);
  Tensor gg = Tensor::zeros(Shape{8});
  Tensor gb = Tensor::zeros(Shape{8});
  Tensor gx = layernorm_rows_backward(g, x, gamma, mean, inv_std, gg, gb);

  auto loss = [&](const Tensor& xx, const Tensor& gm, const Tensor& bt) {
    Tensor yy = layernorm_rows(xx, gm, bt, 1e-5f, nullptr, nullptr);
    double acc = 0.0;
    for (std::int64_t i = 0; i < yy.numel(); ++i) acc += static_cast<double>(yy[i]) * g[i];
    return acc;
  };
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < x.numel(); i += 3) {
    Tensor xp = x.clone();
    xp[i] += eps;
    Tensor xm = x.clone();
    xm[i] -= eps;
    const double fd = (loss(xp, gamma, beta) - loss(xm, gamma, beta)) / (2 * eps);
    EXPECT_NEAR(gx[i], static_cast<float>(fd), 5e-2f) << i;
  }
  for (std::int64_t i = 0; i < 8; ++i) {
    Tensor gp = gamma.clone();
    gp[i] += eps;
    Tensor gm2 = gamma.clone();
    gm2[i] -= eps;
    const double fd = (loss(x, gp, beta) - loss(x, gm2, beta)) / (2 * eps);
    EXPECT_NEAR(gg[i], static_cast<float>(fd), 5e-2f) << i;
  }
}

// GELU and its derivative at one point, through the Tensor kernels.
float gelu_at(float x) { return gelu(Tensor::scalar(x))[0]; }
float gelu_grad_at(float x) {
  return gelu_backward(Tensor::scalar(x), Tensor::scalar(1.0f))[0];
}

TEST(Gelu, KnownValues) {
  EXPECT_NEAR(gelu_at(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(gelu_at(10.0f), 10.0f, 1e-4f);   // saturates to identity
  EXPECT_NEAR(gelu_at(-10.0f), 0.0f, 1e-4f);   // saturates to zero
  EXPECT_GT(gelu_at(1.0f), 0.8f);
  EXPECT_LT(gelu_at(-1.0f), 0.0f);
}

TEST(Gelu, GradMatchesFiniteDifference) {
  for (float x : {-3.0f, -1.0f, -0.1f, 0.0f, 0.5f, 2.0f}) {
    const float eps = 1e-3f;
    const float fd = (gelu_at(x + eps) - gelu_at(x - eps)) / (2 * eps);
    EXPECT_NEAR(gelu_grad_at(x), fd, 1e-3f) << x;
  }
}

TEST(RowOps, AddTableRowsMatchesReferenceOnEveryRange) {
  // Every [i0, i1) sub-range, starting and ending mid-row included, adds
  // table[(i / d / group) * d + i % d] to element i and touches nothing
  // else: the fused-chain chunks of the compiled executor rely on this.
  Rng rng(31);
  const std::int64_t rows = 7;
  for (const std::int64_t d : {1, 5, 8}) {
    const std::int64_t n = rows * d;
    const Tensor base = Tensor::randn(Shape{rows, d}, rng);
    const Tensor table = Tensor::randn(Shape{rows, d}, rng);
    for (const std::int64_t group : {std::int64_t{1}, std::int64_t{3},
                                     std::int64_t{rows}, kAllRows}) {
      for (std::int64_t i0 = 0; i0 <= n; ++i0) {
        for (std::int64_t i1 = i0; i1 <= n; ++i1) {
          Tensor x = base.clone();
          add_table_rows_f32(x.data().data(), i0, i1, table.data().data(), d,
                             group);
          for (std::int64_t i = 0; i < n; ++i) {
            const float want =
                i < i0 || i >= i1
                    ? base[i]
                    : base[i] + table[(i / d / group) * d + i % d];
            ASSERT_EQ(x[i], want) << "d " << d << " group " << group
                                  << " range [" << i0 << ", " << i1
                                  << ") element " << i;
          }
        }
      }
    }
  }
  // The whole-tensor form, across thread counts.
  const Tensor base = Tensor::randn(Shape{300, 70}, rng);
  const Tensor table = Tensor::randn(Shape{4, 70}, rng);
  Tensor want = base.clone();
  add_table_rows_f32(want.data().data(), 0, want.numel(),
                     table.data().data(), 70, 75);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    kernels::set_max_threads(threads);
    Tensor x = base.clone();
    add_table_rows_inplace(x, table.data().data(), 75);
    EXPECT_EQ(0, std::memcmp(x.data().data(), want.data().data(),
                             sizeof(float) * static_cast<std::size_t>(
                                                 x.numel())));
  }
  kernels::set_max_threads(0);
}

TEST(RowOps, ColumnBlocksAndRowGatherRoundTrip) {
  Rng rng(32);
  const Tensor x = Tensor::randn(Shape{6, 10}, rng);
  Tensor block(Shape{6, 3});
  copy_cols_into(x, 4, block);
  Tensor y = Tensor::zeros(Shape{6, 10});
  paste_cols(block, 4, y);
  for (std::int64_t r = 0; r < 6; ++r) {
    for (std::int64_t c = 0; c < 10; ++c) {
      EXPECT_EQ(y.at(r, c), c >= 4 && c < 7 ? x.at(r, c) : 0.0f);
    }
  }
  const std::vector<std::int64_t> perm = {3, 0, 5, 1, 4, 2};
  Tensor gathered(x.shape());
  gather_rows_into(x, perm, gathered);
  for (std::int64_t r = 0; r < 6; ++r) {
    for (std::int64_t c = 0; c < 10; ++c) {
      EXPECT_EQ(gathered.at(r, c), x.at(perm[static_cast<std::size_t>(r)], c));
    }
  }
}

}  // namespace
}  // namespace orbit2
