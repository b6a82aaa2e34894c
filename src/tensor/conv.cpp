#include "tensor/conv.hpp"

#include <algorithm>
#include <utility>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"

namespace orbit2 {

std::int64_t conv2d_out_dim(std::int64_t in, std::int64_t kernel,
                            std::int64_t stride, std::int64_t pad) {
  ORBIT2_REQUIRE(stride >= 1, "conv stride must be >= 1");
  const std::int64_t padded = in + 2 * pad - kernel;
  ORBIT2_REQUIRE(padded >= 0, "conv kernel larger than padded input");
  return padded / stride + 1;
}

// All three conv kernels dispatch through kernels::parallel_for with each
// output element produced wholly inside one chunk (direct-blocked form), so
// results are bit-identical for any thread count: forward and
// backward_params parallelize over (output channel, row) slabs, and
// backward_input is written in gather form — each input cell sums its own
// contributions in fixed (oc, ky, kx) order instead of racing scattered
// accumulations.
//
// Forward and backward_input are row kernels: a block of double accumulators
// for one output row takes one tap_update per valid (channel, ky, kx) tap,
// over only the columns whose source column lies inside the image. Each
// element still sees double(x) * double(w) added in (channel, ky, kx) order
// and padding taps are skipped, never multiplied by zero, so the one-row
// SIMD gemm tile reproduces the per-element loop bit for bit on every ISA.

namespace {

// Columns per accumulator block. The block lives on the stack, so neither
// kernel allocates and graph replay stays allocation-free.
constexpr std::int64_t kColBlock = 256;

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// The half-open range of positions o in [lo, hi) whose mapped position
/// o * stride + offset lies in [0, extent); empty when first >= second.
std::pair<std::int64_t, std::int64_t> valid_range(std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::int64_t offset,
                                                  std::int64_t stride,
                                                  std::int64_t extent) {
  return {std::max(lo, -floor_div(offset, stride)),
          std::min(hi, floor_div(extent - 1 - offset, stride) + 1)};
}

/// acc[j * acc_step] += double(*w) * double(src[j * src_step]) for j in
/// [0, n). Unit steps run a one-row, one-step SIMD gemm tile; strided convs
/// take the scalar loop, which performs the same arithmetic per element.
void tap_update(const simd::Ops& sops, double* acc, std::int64_t acc_step,
                const float* src, std::int64_t src_step, const float* w,
                std::int64_t n) {
  if (acc_step == 1 && src_step == 1) {
    sops.gemm_tile_f64(acc, n, w, 1, src, n, 1, n, 1);
    return;
  }
  const double a = static_cast<double>(*w);
  for (std::int64_t j = 0; j < n; ++j) {
    acc[j * acc_step] += a * static_cast<double>(src[j * src_step]);
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(input.rank() == 3, "conv2d input must be [C,H,W]");
  const std::int64_t oh =
      conv2d_out_dim(input.dim(1), spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow =
      conv2d_out_dim(input.dim(2), spec.kernel_w, spec.stride, spec.pad);
  Tensor out(Shape{weight.dim(0), oh, ow});
  conv2d_forward_into(input, weight, bias, spec, out);
  return out;
}

void conv2d_forward_into(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const Conv2dSpec& spec,
                         Tensor& out) {
  ORBIT2_REQUIRE(input.rank() == 3, "conv2d input must be [C,H,W]");
  ORBIT2_REQUIRE(weight.rank() == 4, "conv2d weight must be [O,C,kh,kw]");
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = weight.dim(0);
  ORBIT2_REQUIRE(weight.dim(1) == cin, "conv2d channel mismatch: input "
                                           << cin << " vs weight "
                                           << weight.dim(1));
  ORBIT2_REQUIRE(weight.dim(2) == spec.kernel_h && weight.dim(3) == spec.kernel_w,
                 "conv2d weight kernel dims disagree with spec");
  ORBIT2_REQUIRE(bias.rank() == 1 && bias.dim(0) == cout,
                 "conv2d bias must be [Cout]");

  const std::int64_t oh = conv2d_out_dim(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow = conv2d_out_dim(w, spec.kernel_w, spec.stride, spec.pad);
  ORBIT2_REQUIRE(out.shape() == Shape({cout, oh, ow}),
                 "conv2d_forward_into out shape mismatch");
  const std::int64_t conv_flops =
      2 * cout * cin * spec.kernel_h * spec.kernel_w * oh * ow;
  ORBIT2_OBS_SPAN_ARG("conv2d_forward", "tensor", "flops", conv_flops);
  ORBIT2_OBS_COUNT("tensor.conv2d_flops", conv_flops);

  const float* in = input.data().data();
  const float* wt = weight.data().data();
  const float* pb = bias.data().data();
  float* po = out.data().data();

  const std::int64_t kh = spec.kernel_h, kw = spec.kernel_w;
  const std::int64_t stride = spec.stride, pad = spec.pad;
  const std::int64_t work_per_row = ow * cin * kh * kw;
  kernels::parallel_for(
      cout * oh, kernels::grain_for(work_per_row),
      [&](std::int64_t row0, std::int64_t row1) {
        const simd::Ops& sops = simd::ops();
        double acc[kColBlock] = {};
        for (std::int64_t row = row0; row < row1; ++row) {
          const std::int64_t oc = row / oh;
          const std::int64_t oy = row % oh;
          const float* wt_oc = wt + oc * cin * kh * kw;
          float* out_row = po + row * ow;
          for (std::int64_t o0 = 0; o0 < ow; o0 += kColBlock) {
            const std::int64_t o1 = std::min(ow, o0 + kColBlock);
            std::fill(acc, acc + (o1 - o0), static_cast<double>(pb[oc]));
            for (std::int64_t ic = 0; ic < cin; ++ic) {
              for (std::int64_t ky = 0; ky < kh; ++ky) {
                const std::int64_t iy = oy * stride - pad + ky;
                if (iy < 0 || iy >= h) continue;
                const float* in_row = in + (ic * h + iy) * w;
                const float* wt_row = wt_oc + (ic * kh + ky) * kw;
                for (std::int64_t kx = 0; kx < kw; ++kx) {
                  // Output column ox reads input column ox * stride + off.
                  const std::int64_t off = kx - pad;
                  const auto [x0, x1] = valid_range(o0, o1, off, stride, w);
                  if (x0 >= x1) continue;
                  tap_update(sops, acc + (x0 - o0), 1,
                             in_row + x0 * stride + off, stride,
                             wt_row + kx, x1 - x0);
                }
              }
            }
            for (std::int64_t ox = o0; ox < o1; ++ox) {
              out_row[ox] = static_cast<float>(acc[ox - o0]);
            }
          }
        }
      });
}

Tensor conv2d_backward_input(const Tensor& grad_output, const Tensor& weight,
                             std::int64_t in_h, std::int64_t in_w,
                             const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(grad_output.rank() == 3 && weight.rank() == 4,
                 "conv2d_backward_input rank mismatch");
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = weight.dim(1);
  ORBIT2_REQUIRE(weight.dim(0) == cout, "conv2d_backward_input channel mismatch");

  Tensor grad_input(Shape{cin, in_h, in_w});
  const float* go = grad_output.data().data();
  const float* wt = weight.data().data();
  float* gi = grad_input.data().data();

  // Gather form: gi[ic, iy, ix] = sum over (oc, ky, kx) of
  // go[oc, oy, ox] * w[oc, ic, ky, kx] at the unique (oy, ox) that reads
  // (iy, ix) through tap (ky, kx), when it exists on the stride grid.
  const std::int64_t kh = spec.kernel_h, kw = spec.kernel_w;
  const std::int64_t stride = spec.stride, pad = spec.pad;
  const std::int64_t work_per_row = in_w * cout * kh * kw;
  kernels::parallel_for(
      cin * in_h, kernels::grain_for(work_per_row),
      [&](std::int64_t row0, std::int64_t row1) {
        const simd::Ops& sops = simd::ops();
        double acc[kColBlock] = {};
        for (std::int64_t row = row0; row < row1; ++row) {
          const std::int64_t ic = row / in_h;
          const std::int64_t iy = row % in_h;
          float* gi_row = gi + row * in_w;
          for (std::int64_t i0 = 0; i0 < in_w; i0 += kColBlock) {
            const std::int64_t i1 = std::min(in_w, i0 + kColBlock);
            std::fill(acc, acc + (i1 - i0), 0.0);
            for (std::int64_t oc = 0; oc < cout; ++oc) {
              for (std::int64_t ky = 0; ky < kh; ++ky) {
                const std::int64_t ty = iy + pad - ky;
                if (ty < 0 || ty % stride != 0 || ty / stride >= oh) continue;
                const float* go_row = go + (oc * oh + ty / stride) * ow;
                const float* wt_row = wt + ((oc * cin + ic) * kh + ky) * kw;
                for (std::int64_t kx = 0; kx < kw; ++kx) {
                  // Output column ox feeds block column ox * stride + off.
                  const std::int64_t off = kx - pad - i0;
                  const auto [x0, x1] =
                      valid_range(0, ow, off, stride, i1 - i0);
                  if (x0 >= x1) continue;
                  tap_update(sops, acc + x0 * stride + off, stride,
                             go_row + x0, 1, wt_row + kx, x1 - x0);
                }
              }
            }
            for (std::int64_t ix = i0; ix < i1; ++ix) {
              gi_row[ix] = static_cast<float>(acc[ix - i0]);
            }
          }
        }
      });
  return grad_input;
}

void conv2d_backward_params(const Tensor& grad_output, const Tensor& input,
                            Tensor& grad_weight, Tensor& grad_bias,
                            const Conv2dSpec& spec) {
  ORBIT2_REQUIRE(grad_output.rank() == 3 && input.rank() == 3,
                 "conv2d_backward_params rank mismatch");
  const std::int64_t cout = grad_output.dim(0);
  const std::int64_t oh = grad_output.dim(1), ow = grad_output.dim(2);
  const std::int64_t cin = input.dim(0);
  const std::int64_t h = input.dim(1), w = input.dim(2);
  ORBIT2_REQUIRE(grad_weight.shape() ==
                     Shape({cout, cin, spec.kernel_h, spec.kernel_w}),
                 "grad_weight shape mismatch");
  ORBIT2_REQUIRE(grad_bias.shape() == Shape({cout}), "grad_bias shape mismatch");

  const float* go = grad_output.data().data();
  const float* in = input.data().data();
  float* gw = grad_weight.data().data();
  float* gb = grad_bias.data().data();

  // Each output channel owns disjoint slices of grad_weight/grad_bias, so
  // channels parallelize with no races; the inner accumulation keeps the
  // original serial (oy, ox) order per channel.
  const std::int64_t work_per_oc = oh * ow * cin * spec.kernel_h * spec.kernel_w;
  kernels::parallel_for(
      cout, kernels::grain_for(work_per_oc),
      [&](std::int64_t oc0, std::int64_t oc1) {
        for (std::int64_t oc = oc0; oc < oc1; ++oc) {
          double bias_acc = 0.0;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const float g = go[(oc * oh + oy) * ow + ox];
              bias_acc += g;
              const std::int64_t iy0 = oy * spec.stride - spec.pad;
              const std::int64_t ix0 = ox * spec.stride - spec.pad;
              for (std::int64_t ic = 0; ic < cin; ++ic) {
                const float* in_c = in + ic * h * w;
                float* gw_c =
                    gw + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
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
          gb[oc] += static_cast<float>(bias_acc);
        }
      });
}

}  // namespace orbit2
