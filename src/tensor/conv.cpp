#include "tensor/conv.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/scratch.hpp"
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
// results are bit-identical for any thread count: forward parallelizes over
// (output channel, row) slabs, backward_params over output channels, and
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
//
// Backward_params keeps the per-element loop's float sums: each weight adds
// the rounded product g * x, then rounds the add, once per output pixel in
// ascending (oy, ox) order. It stages each output channel's weights as
// [ky][kx][cin] and the input once per call as patch rows: for every output
// column, each input row's kw x cin taps, input rows adjacent. A pixel's
// patch, its kernel rows [ky_lo, ky_hi), is then one contiguous run shared
// by every output channel, and the pixels of a row sit at a fixed stride,
// so each output row folds into the weights with one axpy_rows_f32 call over
// its interior pixels, which applies them to each weight in that same
// order. Border pixels, whose patches cross the image edge, add only their
// in-image kx taps, one call per kernel row, before and after the interior:
// a zero-padded patch would add g * 0, which is NaN for an infinite g where
// the skip adds nothing.

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

/// conv2d_backward_params pads an interior fold that ends at the staged
/// weight row's end to a multiple of the widest vector (16 floats), so no
/// ISA runs a scalar tail there; the pad lanes read whatever follows the
/// patch and land in the staged row's tail, which is discarded. The patch
/// rows staged for one band of output rows stay under kBandFloats.
constexpr std::int64_t kPadCols = 16;
constexpr std::int64_t kBandFloats = std::int64_t{1} << 16;

/// Grow-only per-thread scratch of conv2d_backward_params. Every entry it
/// reads into a kept result is written earlier in the same call.
struct ParamsScratch {
  std::vector<float> patches;  // staged input, [ow][band rows][kw][cin]
  std::vector<float> staged;   // one output channel's weights, [kh][kw][cin]
};

ParamsScratch& params_scratch() {
  thread_local ParamsScratch scratch;
  return scratch;
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

  const std::int64_t conv_flops =
      2 * cout * cin * spec.kernel_h * spec.kernel_w * oh * ow;
  ORBIT2_OBS_SPAN_ARG("conv2d_backward_input", "tensor", "flops", conv_flops);

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

  const std::int64_t kh = spec.kernel_h, kw = spec.kernel_w;
  const std::int64_t stride = spec.stride, pad = spec.pad;
  const std::int64_t taps = kh * kw;     // kernel taps per input channel
  const std::int64_t cols = cin * taps;  // one output channel's weights
  const std::int64_t conv_flops = 2 * cout * cols * oh * ow;
  ORBIT2_OBS_SPAN_ARG("conv2d_backward_params", "tensor", "flops", conv_flops);

  const float* go = grad_output.data().data();
  const float* in = input.data().data();
  float* gw = grad_weight.data().data();
  float* gb = grad_bias.data().data();

  for (std::int64_t oc = 0; oc < cout; ++oc) {
    const float* g = go + oc * oh * ow;
    double bias_acc = 0.0;
    for (std::int64_t i = 0; i < oh * ow; ++i) bias_acc += g[i];
    gb[oc] += static_cast<float>(bias_acc);
  }

  // Interior columns [x_lo, x_hi): every kx tap of the pixel is in the image.
  const auto [lo_first, hi_first] = valid_range(0, ow, -pad, stride, w);
  const auto [lo_last, hi_last] = valid_range(0, ow, kw - 1 - pad, stride, w);
  const std::int64_t x_lo = std::min(ow, std::max(lo_first, lo_last));
  const std::int64_t x_hi = std::max(x_lo, std::min(hi_first, hi_last));
  const std::int64_t row_taps = kw * cin;  // one kernel row, [kx][cin]
  const std::int64_t band_oh = std::max<std::int64_t>(
      1, (kBandFloats / (ow * row_taps) - kh) / stride + 1);

  for (std::int64_t oy0 = 0; oy0 < oh; oy0 += band_oh) {
    const std::int64_t oy1 = std::min(oh, oy0 + band_oh);
    const std::int64_t iy_lo = std::max<std::int64_t>(0, oy0 * stride - pad);
    const std::int64_t iy_hi = std::min(h, (oy1 - 1) * stride - pad + kh);
    if (iy_lo >= iy_hi) continue;  // the band reads only padding rows
    const std::int64_t band_h = iy_hi - iy_lo;
    const std::int64_t pixel_taps = band_h * row_taps;

    // Patch rows: tap (iy, kx, c) of output column ox reads input
    // (c, iy, ox * stride - pad + kx). Out-of-image taps are never written.
    float* patches = core::grow_aligned(params_scratch().patches,
                                        ow * pixel_taps + kPadCols);
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int64_t ix0 = ox * stride - pad;
      const auto [kx_lo, kx_hi] = valid_range(0, kw, ix0, 1, w);
      for (std::int64_t iy = iy_lo; iy < iy_hi; ++iy) {
        float* dst = patches + ox * pixel_taps + (iy - iy_lo) * row_taps;
        for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
          const float* src = in + iy * w + ix0 + kx;
          for (std::int64_t c = 0; c < cin; ++c) {
            dst[kx * cin + c] = src[c * h * w];
          }
        }
      }
    }

    kernels::parallel_for(
        cout, kernels::grain_for((oy1 - oy0) * ow * cols),
        [&](std::int64_t oc0, std::int64_t oc1) {
          const simd::Ops& sops = simd::ops();
          float* staged =
              core::grow_aligned(params_scratch().staged, cols + kPadCols);
          for (std::int64_t oc = oc0; oc < oc1; ++oc) {
            float* gw_oc = gw + oc * cols;
            for (std::int64_t c = 0; c < cin; ++c) {
              for (std::int64_t t = 0; t < taps; ++t) {
                staged[t * cin + c] = gw_oc[c * taps + t];
              }
            }
            std::fill(staged + cols, staged + cols + kPadCols, 0.0f);
            for (std::int64_t oy = oy0; oy < oy1; ++oy) {
              const std::int64_t iy0 = oy * stride - pad;
              const auto [ky_lo, ky_hi] = valid_range(0, kh, iy0, 1, h);
              if (ky_lo >= ky_hi) continue;
              const float* g_row = go + (oc * oh + oy) * ow;
              // Output column ox's patch: pixel_rows(ox)[0, live).
              const std::int64_t live = (ky_hi - ky_lo) * row_taps;
              const auto pixel_rows = [&](std::int64_t ox) {
                return patches + ox * pixel_taps +
                       (iy0 + ky_lo - iy_lo) * row_taps;
              };
              float* staged_rows = staged + ky_lo * row_taps;
              const auto border = [&](std::int64_t ox0, std::int64_t ox1) {
                for (std::int64_t ox = ox0; ox < ox1; ++ox) {
                  const auto [kx_lo, kx_hi] =
                      valid_range(0, kw, ox * stride - pad, 1, w);
                  for (std::int64_t r = 0; r < live; r += row_taps) {
                    sops.axpy_rows_f32(staged_rows + r + kx_lo * cin,
                                       pixel_rows(ox) + r + kx_lo * cin, 0,
                                       g_row + ox, 1, (kx_hi - kx_lo) * cin);
                  }
                }
              };
              border(0, x_lo);
              if (x_hi > x_lo) {
                // The pad lanes stay inside the staged row only when the
                // live kernel rows reach its end.
                const std::int64_t n =
                    ky_hi == kh ? (live + kPadCols - 1) / kPadCols * kPadCols
                                : live;
                sops.axpy_rows_f32(staged_rows, pixel_rows(x_lo), pixel_taps,
                                   g_row + x_lo, x_hi - x_lo, n);
              }
              border(x_hi, ow);
            }
            for (std::int64_t c = 0; c < cin; ++c) {
              for (std::int64_t t = 0; t < taps; ++t) {
                gw_oc[c * taps + t] = staged[t * cin + c];
              }
            }
          }
        });
  }
}

}  // namespace orbit2
