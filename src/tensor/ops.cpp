#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/kernels.hpp"
#include "core/simd/simd.hpp"

namespace orbit2 {

// Row-wise kernels parallelize over rows through the kernel layer; every
// row is produced wholly inside one chunk with the original serial
// per-row arithmetic, so results are bit-identical for any thread count.

Tensor softmax_rows(const Tensor& logits) {
  Tensor out = Tensor::uninitialized(logits.shape());
  softmax_rows_into(logits, out);
  return out;
}

void softmax_rows_into(const Tensor& logits, Tensor& out) {
  ORBIT2_REQUIRE(logits.rank() == 2, "softmax_rows requires rank-2");
  ORBIT2_REQUIRE(out.shape() == logits.shape(),
                 "softmax_rows_into shape mismatch");
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  ORBIT2_REQUIRE(rows == 0 || cols >= 1,
                 "softmax_rows: rows must have at least one column");
  const float* in = logits.data().data();
  float* po = out.data().data();
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(
      rows, kernels::grain_for(cols), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* x = in + r * cols;
          float* y = po + r * cols;
          float row_max = x[0];
          for (std::int64_t c = 1; c < cols; ++c) row_max = std::max(row_max, x[c]);
          // The denom accumulation stays a sequential double sum — its
          // addition order is pinned by golden tests. The element-parallel
          // exp and rescale route through the simd tier. `y` may be `x`:
          // row_max is read in full before the first write.
          for (std::int64_t c = 0; c < cols; ++c) y[c] = x[c] - row_max;
          sops.exp_f32(y, y, cols);
          double denom = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) denom += y[c];
          const float inv = static_cast<float>(1.0 / denom);
          sops.scale_f32(y, inv, cols);
        }
      });
}

Tensor softmax_rows_backward(const Tensor& softmax_output,
                             const Tensor& grad_output) {
  check_same_shape(softmax_output, grad_output, "softmax_rows_backward");
  ORBIT2_REQUIRE(softmax_output.rank() == 2, "softmax backward requires rank-2");
  const std::int64_t rows = softmax_output.dim(0);
  const std::int64_t cols = softmax_output.dim(1);
  Tensor grad_input = Tensor::uninitialized(softmax_output.shape());
  const float* y = softmax_output.data().data();
  const float* gy = grad_output.data().data();
  float* gx = grad_input.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(cols), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* yr = y + r * cols;
          const float* gr = gy + r * cols;
          float* xr = gx + r * cols;
          double dot = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            dot += static_cast<double>(yr[c]) * gr[c];
          }
          for (std::int64_t c = 0; c < cols; ++c) {
            xr[c] = yr[c] * (gr[c] - static_cast<float>(dot));
          }
        }
      });
  return grad_input;
}

Tensor layernorm_rows(const Tensor& input, const Tensor& gamma,
                      const Tensor& beta, float epsilon, Tensor* saved_mean,
                      Tensor* saved_inv_std) {
  Tensor out = Tensor::uninitialized(input.shape());
  if (saved_mean != nullptr) {
    *saved_mean = Tensor::uninitialized(Shape{input.dim(0)});
  }
  if (saved_inv_std != nullptr) {
    *saved_inv_std = Tensor::uninitialized(Shape{input.dim(0)});
  }
  layernorm_rows_into(input, gamma, beta, epsilon, out, saved_mean,
                      saved_inv_std);
  return out;
}

void layernorm_rows_into(const Tensor& input, const Tensor& gamma,
                         const Tensor& beta, float epsilon, Tensor& out,
                         Tensor* saved_mean, Tensor* saved_inv_std) {
  ORBIT2_REQUIRE(input.rank() == 2, "layernorm_rows requires rank-2");
  const std::int64_t rows = input.dim(0), cols = input.dim(1);
  ORBIT2_REQUIRE(gamma.shape() == Shape({cols}) && beta.shape() == Shape({cols}),
                 "layernorm gamma/beta must be [D]");
  ORBIT2_REQUIRE(out.shape() == input.shape(),
                 "layernorm_rows_into shape mismatch");

  const float* in = input.data().data();
  const float* g = gamma.data().data();
  const float* b = beta.data().data();
  float* po = out.data().data();
  float* pm = saved_mean != nullptr ? saved_mean->data().data() : nullptr;
  float* ps = saved_inv_std != nullptr ? saved_inv_std->data().data() : nullptr;
  kernels::parallel_for(
      rows, kernels::grain_for(cols), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* x = in + r * cols;
          double sum = 0.0, sum_sq = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            sum += x[c];
            sum_sq += static_cast<double>(x[c]) * x[c];
          }
          const double mu = sum / static_cast<double>(cols);
          const double var =
              std::max(0.0, sum_sq / static_cast<double>(cols) - mu * mu);
          const double istd = 1.0 / std::sqrt(var + epsilon);
          if (pm != nullptr) pm[r] = static_cast<float>(mu);
          if (ps != nullptr) ps[r] = static_cast<float>(istd);
          float* y = po + r * cols;
          for (std::int64_t c = 0; c < cols; ++c) {
            y[c] = static_cast<float>((x[c] - mu) * istd) * g[c] + b[c];
          }
        }
      });
}

Tensor layernorm_rows_backward(const Tensor& grad_output, const Tensor& input,
                               const Tensor& gamma, const Tensor& saved_mean,
                               const Tensor& saved_inv_std,
                               Tensor& grad_gamma, Tensor& grad_beta) {
  const std::int64_t rows = input.dim(0), cols = input.dim(1);
  check_same_shape(grad_output, input, "layernorm_rows_backward");
  Tensor grad_input = Tensor::uninitialized(input.shape());

  const float* gy = grad_output.data().data();
  const float* in = input.data().data();
  const float* g = gamma.data().data();
  const float* mu = saved_mean.data().data();
  const float* istd = saved_inv_std.data().data();
  float* gi = grad_input.data().data();
  float* gg = grad_gamma.data().data();
  float* gb = grad_beta.data().data();

  // grad_input rows are independent; grad_gamma/grad_beta are reductions
  // over rows, so each chunk fills an indexed partial slot and the partials
  // are combined in ascending chunk order. Chunk boundaries depend only on
  // (rows, grain), keeping the combine order — and the result — identical
  // for any thread count.
  const std::int64_t grain = kernels::grain_for(2 * cols);
  const std::int64_t chunks = (rows + grain - 1) / grain;
  std::vector<std::vector<double>> gg_parts(static_cast<std::size_t>(chunks));
  std::vector<std::vector<double>> gb_parts(static_cast<std::size_t>(chunks));
  kernels::parallel_for(rows, grain, [&](std::int64_t r0, std::int64_t r1) {
    const std::size_t chunk = static_cast<std::size_t>(r0 / grain);
    std::vector<double>& gg_part = gg_parts[chunk];
    std::vector<double>& gb_part = gb_parts[chunk];
    gg_part.assign(static_cast<std::size_t>(cols), 0.0);
    gb_part.assign(static_cast<std::size_t>(cols), 0.0);
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* x = in + r * cols;
      const float* dy = gy + r * cols;
      float* dx = gi + r * cols;
      const float m = mu[r];
      const float is = istd[r];
      // xhat = (x - mu) * istd ; dL/dxhat = dy * gamma.
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (std::int64_t c = 0; c < cols; ++c) {
        const float xhat = (x[c] - m) * is;
        const float dxhat = dy[c] * g[c];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
        gg_part[static_cast<std::size_t>(c)] +=
            static_cast<double>(dy[c]) * xhat;
        gb_part[static_cast<std::size_t>(c)] += dy[c];
      }
      const float mean_dxhat =
          static_cast<float>(sum_dxhat / static_cast<double>(cols));
      const float mean_dxhat_xhat =
          static_cast<float>(sum_dxhat_xhat / static_cast<double>(cols));
      for (std::int64_t c = 0; c < cols; ++c) {
        const float xhat = (x[c] - m) * is;
        const float dxhat = dy[c] * g[c];
        dx[c] = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * is;
      }
    }
  });
  for (std::size_t chunk = 0; chunk < gg_parts.size(); ++chunk) {
    for (std::int64_t c = 0; c < cols; ++c) {
      gg[c] += static_cast<float>(gg_parts[chunk][static_cast<std::size_t>(c)]);
      gb[c] += static_cast<float>(gb_parts[chunk][static_cast<std::size_t>(c)]);
    }
  }
  return grad_input;
}

Tensor gelu(const Tensor& input) {
  Tensor out = Tensor::uninitialized(input.shape());
  const float* x = input.data().data();
  float* y = out.data().data();
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(input.numel(), kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          sops.gelu_f32(y + i0, x + i0, i1 - i0);
                        });
  return out;
}

Tensor gelu_backward(const Tensor& input, const Tensor& grad_output) {
  check_same_shape(input, grad_output, "gelu_backward");
  Tensor out = Tensor::uninitialized(input.shape());
  const float* x = input.data().data();
  const float* gy = grad_output.data().data();
  float* gx = out.data().data();
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(input.numel(), kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          sops.gelu_grad_f32(gx + i0, gy + i0, x + i0,
                                             i1 - i0);
                        });
  return out;
}

void add_table_rows_f32(float* dst, std::int64_t i0, std::int64_t i1,
                        const float* table, std::int64_t d,
                        std::int64_t group) {
  if (i0 >= i1) return;
  const simd::Ops& sops = simd::ops();
  // Divide once; later runs start a row, so the table row advances by
  // counting rows instead of dividing per run.
  const std::int64_t row = i0 / d;
  const float* entry = table + (row / group) * d;
  std::int64_t rows_left = group - row % group;  // rows before entry moves
  std::int64_t col = i0 % d;
  for (std::int64_t i = i0; i < i1;) {
    const std::int64_t run = std::min(i1 - i, d - col);
    sops.add_f32(dst + i, entry + col, run);
    i += run;
    col = 0;
    if (--rows_left == 0) {
      entry += d;
      rows_left = group;
    }
  }
}

void add_table_rows_inplace(Tensor& x, const float* table,
                            std::int64_t group) {
  ORBIT2_REQUIRE(x.rank() == 2, "add_table_rows_inplace expects [N, D]");
  ORBIT2_REQUIRE(group >= 1, "add_table_rows_inplace group " << group);
  float* dst = x.data().data();
  const std::int64_t d = x.dim(1);
  kernels::parallel_for(x.numel(), kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          add_table_rows_f32(dst, i0, i1, table, d, group);
                        });
}

void copy_cols_into(const Tensor& x, std::int64_t start, Tensor& out) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  const std::int64_t len = out.dim(1);
  ORBIT2_CHECK(out.dim(0) == rows && start >= 0 && start + len <= cols,
               "copy_cols_into out of range");
  const float* src = x.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(len), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::copy(src + r * cols + start, src + r * cols + start + len,
                    dst + r * len);
        }
      });
}

void paste_cols(const Tensor& block, std::int64_t start, Tensor& x) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  const std::int64_t len = block.dim(1);
  ORBIT2_CHECK(block.dim(0) == rows && start >= 0 && start + len <= cols,
               "paste_cols shape mismatch");
  const float* src = block.data().data();
  float* dst = x.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(len), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::copy(src + r * len, src + r * len + len, dst + r * cols + start);
        }
      });
}

void gather_rows_into(const Tensor& x, const std::vector<std::int64_t>& index,
                      Tensor& out) {
  const std::int64_t rows = out.dim(0);
  const std::int64_t inner = out.numel() / std::max<std::int64_t>(1, rows);
  ORBIT2_CHECK(static_cast<std::int64_t>(index.size()) == rows &&
                   x.numel() == x.dim(0) * inner,
               "gather_rows_into shape mismatch");
  const float* src = x.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(inner), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::int64_t from = index[static_cast<std::size_t>(i)];
          std::copy(src + from * inner, src + (from + 1) * inner,
                    dst + i * inner);
        }
      });
}

}  // namespace orbit2
