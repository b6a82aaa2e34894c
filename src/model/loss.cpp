#include "model/loss.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/kernels.hpp"
#include "core/scratch.hpp"

namespace orbit2::model {

using autograd::Var;

Var weighted_mse_loss(const Var& prediction, const Tensor& truth,
                      const Tensor& row_weights) {
  const Tensor pred = prediction.value();
  ORBIT2_REQUIRE(pred.rank() == 3, "weighted_mse_loss expects [C,H,W]");
  ORBIT2_REQUIRE(pred.shape() == truth.shape(), "prediction/truth mismatch: "
                                                    << pred.shape().to_string()
                                                    << " vs "
                                                    << truth.shape().to_string());
  const std::int64_t c = pred.dim(0), h = pred.dim(1), w = pred.dim(2);
  ORBIT2_REQUIRE(row_weights.shape() == Shape({h}),
                 "row weights must be [H] = [" << h << "]");

  const float* p = pred.data().data();
  const float* t = truth.data().data();
  const float* wt = row_weights.data().data();

  // Row-chunked deterministic reduction: one [C*H] row per work item, so the
  // combine order (and thus the value) is independent of the thread count.
  const std::int64_t row_grain = kernels::grain_for(w * 4);
  const double acc = kernels::parallel_reduce(
      c * h, row_grain, [&](std::int64_t r0, std::int64_t r1) {
        double partial = 0.0;
        for (std::int64_t r = r0; r < r1; ++r) {
          const float weight = wt[r % h];
          const float* prow = p + r * w;
          const float* trow = t + r * w;
          for (std::int64_t x = 0; x < w; ++x) {
            const double diff = static_cast<double>(prow[x]) - trow[x];
            partial += weight * diff * diff;
          }
        }
        return partial;
      });
  // Scale in double, round once: float(acc) * float(1/n) loses up to a full
  // ulp on large grids (the accumulated sum exceeds float's 24-bit mantissa
  // long before the mean does), so divide before narrowing.
  const double inv_n = 1.0 / static_cast<double>(pred.numel());
  Tensor value = Tensor::scalar(static_cast<float>(acc * inv_n));

  const float inv_n_f = static_cast<float>(inv_n);
  return autograd::make_op(
      "weighted_mse_loss", std::move(value), {prediction},
      [prediction, pred, truth, row_weights, inv_n_f](const Tensor& g) {
        const float g0 = g.item();
        const std::int64_t gc = pred.dim(0), gh = pred.dim(1), gw = pred.dim(2);
        Tensor grad(pred.shape());
        const float* gp = pred.data().data();
        const float* gt = truth.data().data();
        const float* gwt = row_weights.data().data();
        float* out = grad.data().data();
        // Disjoint per-row writes: bit-identical for any thread count.
        const std::int64_t grain = kernels::grain_for(gw * 3);
        kernels::parallel_for(
            gc * gh, grain, [&](std::int64_t r0, std::int64_t r1) {
              for (std::int64_t r = r0; r < r1; ++r) {
                const float factor = 2.0f * gwt[r % gh] * inv_n_f * g0;
                const std::int64_t base = r * gw;
                for (std::int64_t x = 0; x < gw; ++x) {
                  out[base + x] = factor * (gp[base + x] - gt[base + x]);
                }
              }
            });
        accumulate_into(prediction, grad);
      });
}

Var tv_prior_loss(const Var& prediction, float epsilon) {
  const Tensor pred = prediction.value();
  ORBIT2_REQUIRE(pred.rank() == 3, "tv_prior_loss expects [C,H,W]");
  ORBIT2_REQUIRE(epsilon > 0.0f, "tv epsilon must be positive");
  const std::int64_t c = pred.dim(0), h = pred.dim(1), w = pred.dim(2);
  const float* p = pred.data().data();

  // 8-neighbourhood with b_ij = 1/distance; each unordered pair visited
  // once via the 4 forward offsets.
  static constexpr struct { std::int64_t dy, dx; } kOffsets[4] = {
      {0, 1}, {1, 0}, {1, 1}, {1, -1}};
  const float kWeights[4] = {1.0f, 1.0f, 1.0f / std::sqrt(2.0f),
                             1.0f / std::sqrt(2.0f)};
  const double eps2 = static_cast<double>(epsilon) * epsilon;

  // Row-chunked deterministic reduction (see weighted_mse_loss). Rows read
  // their southern neighbours but only the chunk sum is written, so the
  // overlap is safe.
  const std::int64_t row_grain = kernels::grain_for(w * 16);
  const double acc = kernels::parallel_reduce(
      c * h, row_grain, [&](std::int64_t r0, std::int64_t r1) {
        double partial = 0.0;
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t ch = r / h, y = r % h;
          const float* plane = p + ch * h * w;
          for (std::int64_t x = 0; x < w; ++x) {
            for (int o = 0; o < 4; ++o) {
              const std::int64_t ny = y + kOffsets[o].dy;
              const std::int64_t nx = x + kOffsets[o].dx;
              if (ny < 0 || ny >= h || nx < 0 || nx >= w) continue;
              const double diff = static_cast<double>(plane[y * w + x]) -
                                  plane[ny * w + nx];
              partial += kWeights[o] * std::sqrt(diff * diff + eps2);
            }
          }
        }
        return partial;
      });
  // Divide in double before the single narrowing (same rationale as the MSE
  // data term).
  const double inv_n = 1.0 / static_cast<double>(pred.numel());
  Tensor value = Tensor::scalar(static_cast<float>(acc * inv_n));

  const float inv_n_f = static_cast<float>(inv_n);
  return autograd::make_op(
      "tv_prior_loss", std::move(value), {prediction},
      [prediction, pred, epsilon, inv_n_f](const Tensor& g) {
        const float g0 = g.item();
        const std::int64_t gc = pred.dim(0), gh = pred.dim(1), gw = pred.dim(2);
        const float* gp = pred.data().data();
        Tensor grad(pred.shape());
        float* out = grad.data().data();
        static constexpr struct { std::int64_t dy, dx; } kGradOffsets[4] = {
            {0, 1}, {1, 0}, {1, 1}, {1, -1}};
        const float kGradWeights[4] = {1.0f, 1.0f, 1.0f / std::sqrt(2.0f),
                                       1.0f / std::sqrt(2.0f)};
        const double geps2 = static_cast<double>(epsilon) * epsilon;
        // Each pair's term w * diff / sqrt(diff^2 + eps^2) (d/ddiff of the
        // charbonnier) is computed once per row band into per-thread
        // scratch, laid out [band row][offset][x] and indexed by the pair's
        // center. Band row 0 is the row above the band, whose dy = 1 pairs
        // reach into it. Then each pixel adds the +term of the pairs it
        // centers and the -term of the pairs it neighbours, offset by
        // offset, and writes its own cell once: the same doubles in the
        // same order as evaluating both sides per pixel, at half the square
        // roots. A pair that does not exist (past an edge, across a channel
        // boundary, above the first row) reads a zero slot or a zero pad
        // column. Adding +-0 leaves gsum's bits unchanged because gsum
        // starts at +0 and so is never -0; the gather needs no branch. Rows
        // parallelize with disjoint writes, so the gradient is
        // bit-identical for any thread count.
        const std::int64_t ld = gw + 2;  // one zero pad column each side
        const std::int64_t grain = kernels::grain_for(gw * 32);
        kernels::parallel_for(
            gc * gh, grain, [&](std::int64_t r0, std::int64_t r1) {
              thread_local std::vector<double> term_buffer;
              const std::int64_t band_rows = r1 - r0 + 1;
              double* terms =
                  core::grow_aligned(term_buffer, band_rows * 4 * ld);
              std::fill(terms, terms + band_rows * 4 * ld, 0.0);
              // Terms of flat row r0 - 1 + b, by center column.
              const auto term_row = [&](std::int64_t b, int o) {
                return terms + (b * 4 + o) * ld + 1;
              };
              for (std::int64_t b = r0 > 0 ? 0 : 1; b < band_rows; ++b) {
                const std::int64_t r = r0 - 1 + b;
                const std::int64_t ch = r / gh, y = r % gh;
                const float* plane = gp + ch * gh * gw;
                for (int o = 0; o < 4; ++o) {
                  const std::int64_t ny = y + kGradOffsets[o].dy;
                  if (ny >= gh) continue;
                  const std::int64_t dx = kGradOffsets[o].dx;
                  const std::int64_t x_lo = dx < 0 ? -dx : 0;
                  const std::int64_t x_hi = dx > 0 ? gw - dx : gw;
                  const float* center = plane + y * gw;
                  const float* neighbour = plane + ny * gw + dx;
                  double* out_terms = term_row(b, o);
                  for (std::int64_t x = x_lo; x < x_hi; ++x) {
                    const double diff =
                        static_cast<double>(center[x]) - neighbour[x];
                    out_terms[x] = kGradWeights[o] * diff /
                                   std::sqrt(diff * diff + geps2);
                  }
                }
              }
              for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t b = r - r0 + 1;
                const double* as_center[4];
                const double* as_neighbour[4];
                for (int o = 0; o < 4; ++o) {
                  as_center[o] = term_row(b, o);
                  // (y, x) neighbours the center at (y - dy, x - dx).
                  as_neighbour[o] = term_row(b - kGradOffsets[o].dy, o) -
                                    kGradOffsets[o].dx;
                }
                float* grow = out + r * gw;
                for (std::int64_t x = 0; x < gw; ++x) {
                  double gsum = 0.0;
                  for (int o = 0; o < 4; ++o) {
                    gsum += as_center[o][x];
                    gsum -= as_neighbour[o][x];
                  }
                  grow[x] = static_cast<float>(gsum) * inv_n_f * g0;
                }
              }
            });
        accumulate_into(prediction, grad);
      });
}

Var bayesian_loss(const Var& prediction, const Tensor& truth,
                  const Tensor& row_weights, const BayesianLossParams& params) {
  Var data_term = weighted_mse_loss(prediction, truth, row_weights);
  if (params.tv_weight == 0.0f) return data_term;
  Var prior = tv_prior_loss(prediction, params.tv_epsilon);
  return autograd::add(data_term, autograd::scale(prior, params.tv_weight));
}

Var mse_loss(const Var& prediction, const Tensor& truth) {
  Var diff = autograd::sub(prediction, Var::constant(truth));
  return autograd::mean(autograd::mul(diff, diff));
}

}  // namespace orbit2::model
