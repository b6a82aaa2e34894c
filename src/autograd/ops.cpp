#include "autograd/ops.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "attention/attention.hpp"
#include "core/kernels.hpp"
#include "graph/ir.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/resize.hpp"

namespace orbit2::autograd {

namespace {

// ---- Inference-graph capture hooks ------------------------------------
// When a graph::CaptureScope is active on this thread, every forward op
// records itself into the sink after computing its value eagerly. The
// hooks cost one thread-local read when capture is off.

/// Records a single-stage elementwise op (binary stage aux resolved from
/// `aux` when non-null).
void capture_elementwise(const Tensor& out, const Tensor& in0,
                         const Tensor* aux, graph::EwStage stage) {
  graph::CaptureSink* sink = graph::capture_sink();
  if (sink == nullptr) return;
  graph::GraphOp op;
  op.kind = graph::OpKind::kElementwise;
  op.inputs.push_back(sink->value_for(in0));
  if (aux != nullptr) {
    stage.aux = sink->value_for(*aux);
    op.inputs.push_back(stage.aux);
  }
  op.stages.push_back(stage);
  op.output = sink->bind_output(out);
  sink->record(std::move(op));
}

/// Records a non-elementwise op with plain tensor inputs.
void capture_op(const Tensor& out, graph::OpKind kind,
                std::initializer_list<const Tensor*> inputs,
                std::vector<std::int64_t> iparams = {},
                std::vector<float> fparams = {},
                std::vector<std::int64_t> perm = {}) {
  graph::CaptureSink* sink = graph::capture_sink();
  if (sink == nullptr) return;
  graph::GraphOp op;
  op.kind = kind;
  for (const Tensor* in : inputs) op.inputs.push_back(sink->value_for(*in));
  op.iparams = std::move(iparams);
  op.fparams = std::move(fparams);
  op.perm = std::move(perm);
  op.output = sink->bind_output(out);
  sink->record(std::move(op));
}

// Data-movement helpers dispatch through kernels::parallel_for. Each output
// element is written by exactly one chunk (copies parallelize over rows;
// colsum over disjoint column ranges, walking rows in ascending order inside
// each chunk), so results are bit-identical for any thread count.

/// Copy of columns [start, start+len) of a rank-2 tensor.
Tensor slice_cols(const Tensor& x, std::int64_t start, std::int64_t len) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  ORBIT2_CHECK(start >= 0 && start + len <= cols, "slice_cols out of range");
  Tensor out(Shape{rows, len});
  const float* src = x.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(len), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::copy(src + r * cols + start, src + r * cols + start + len,
                    dst + r * len);
        }
      });
  return out;
}

/// Writes `block` into columns [start, ...) of `x`.
void set_cols(Tensor& x, std::int64_t start, const Tensor& block) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  const std::int64_t len = block.dim(1);
  ORBIT2_CHECK(block.dim(0) == rows && start + len <= cols,
               "set_cols shape mismatch");
  const float* src = block.data().data();
  float* dst = x.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(len), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::copy(src + r * len, src + r * len + len, dst + r * cols + start);
        }
      });
}

/// Column-wise sum of a rank-2 tensor -> [D]. Parallel over disjoint column
/// ranges: every output column is reduced by one chunk over rows in
/// ascending order, matching the serial accumulation exactly.
Tensor colsum(const Tensor& x) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  Tensor out = Tensor::zeros(Shape{cols});
  const float* src = x.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      cols, kernels::grain_for(rows), [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* row = src + r * cols;
          for (std::int64_t c = c0; c < c1; ++c) dst[c] += row[c];
        }
      });
  return out;
}

/// `t` [rows, cols] followed by zero rows up to `n` rows.
Tensor pad_rows(const Tensor& t, std::int64_t n) {
  Tensor out(Shape{n, t.dim(1)});
  std::copy(t.data().begin(), t.data().end(), out.data().begin());
  return out;
}

/// In-place row-broadcast bias add on a rank-2 tensor.
void add_bias_inplace(Tensor& x, const float* bias) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  float* dst = x.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(cols), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          float* row = dst + r * cols;
          for (std::int64_t c = 0; c < cols; ++c) row[c] += bias[c];
        }
      });
}

}  // namespace

Var add(const Var& a, const Var& b) {
  Tensor value = a.value().add(b.value());
  capture_elementwise(value, a.value(), &b.value(),
                      {graph::EwKind::kAddCA});
  return make_op(std::move(value), {a, b}, [a, b](const Tensor& g) {
    accumulate_into(a, g);
    accumulate_into(b, g);
  });
}

Var sub(const Var& a, const Var& b) {
  Tensor value = a.value().sub(b.value());
  capture_elementwise(value, a.value(), &b.value(),
                      {graph::EwKind::kSubCA});
  return make_op(std::move(value), {a, b}, [a, b](const Tensor& g) {
    accumulate_into(a, g);
    accumulate_into(b, g.mul_scalar(-1.0f));
  });
}

Var mul(const Var& a, const Var& b) {
  Tensor value = a.value().mul(b.value());
  capture_elementwise(value, a.value(), &b.value(),
                      {graph::EwKind::kMulCA});
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op(std::move(value), {a, b},
                 [a, b, av, bv](const Tensor& g) {
                   accumulate_into(a, g.mul(bv));
                   accumulate_into(b, g.mul(av));
                 });
}

Var scale(const Var& a, float factor) {
  Tensor value = a.value().mul_scalar(factor);
  graph::EwStage stage{graph::EwKind::kScale};
  stage.scalar = factor;
  capture_elementwise(value, a.value(), nullptr, stage);
  return make_op(std::move(value), {a}, [a, factor](const Tensor& g) {
    accumulate_into(a, g.mul_scalar(factor));
  });
}

Var gelu(const Var& a) {
  Tensor value = orbit2::gelu(a.value());
  capture_elementwise(value, a.value(), nullptr, {graph::EwKind::kGelu});
  Tensor input = a.value();
  return make_op(std::move(value), {a}, [a, input](const Tensor& g) {
    accumulate_into(a, gelu_backward(input, g));
  });
}

Var matmul(const Var& a, const Var& b) {
  Tensor value = orbit2::matmul(a.value(), b.value());
  capture_op(value, graph::OpKind::kMatmul, {&a.value(), &b.value()});
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op(std::move(value), {a, b},
                 [a, b, av, bv](const Tensor& g) {
                   if (a.needs_grad()) accumulate_into(a, matmul_nt(g, bv));
                   if (b.needs_grad()) accumulate_into(b, matmul_tn(av, g));
                 });
}

Var add_bias_rows(const Var& x, const Var& bias) {
  ORBIT2_REQUIRE(x.value().rank() == 2 && bias.value().rank() == 1,
                 "add_bias_rows expects [N,D] + [D]");
  ORBIT2_REQUIRE(x.value().dim(1) == bias.value().dim(0),
                 "add_bias_rows width mismatch");
  Tensor value = x.value().clone();
  add_bias_inplace(value, bias.value().data().data());
  graph::EwStage bias_stage{graph::EwKind::kAddBiasRows};
  bias_stage.a = bias.value().dim(0);
  capture_elementwise(value, x.value(), &bias.value(), bias_stage);
  return make_op(std::move(value), {x, bias}, [x, bias](const Tensor& g) {
    accumulate_into(x, g);
    if (bias.needs_grad()) accumulate_into(bias, colsum(g));
  });
}

Var linear(const Var& x, const Var& weight, const Var& bias) {
  return add_bias_rows(matmul(x, weight), bias);
}

Var reshape(const Var& x, Shape new_shape) {
  const Shape old_shape = x.shape();
  Tensor value = x.value().reshape(new_shape);
  if (graph::CaptureSink* sink = graph::capture_sink()) {
    sink->record_view(value, x.value());
  }
  return make_op(std::move(value), {x}, [x, old_shape](const Tensor& g) {
    accumulate_into(x, g.reshape(old_shape));
  });
}

Var slice_rows(const Var& x, std::int64_t start, std::int64_t len) {
  Tensor value = x.value().slice(0, start, len);
  capture_op(value, graph::OpKind::kSliceRows, {&x.value()}, {start, len});
  const Shape full = x.shape();
  return make_op(std::move(value), {x}, [x, full, start](const Tensor& g) {
    Tensor padded = Tensor::zeros(full);
    // Rows [start, start+len) of the padded gradient get g.
    std::int64_t inner = 1;
    for (int i = 1; i < full.rank(); ++i) inner *= full[i];
    std::copy(g.data().begin(), g.data().end(),
              padded.data().begin() + start * inner);
    accumulate_into(x, padded);
  });
}

Var concat_rows(const std::vector<Var>& parts) {
  ORBIT2_REQUIRE(!parts.empty(), "concat_rows of nothing");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p.value());
  Tensor value = Tensor::concat(0, values);
  if (graph::CaptureSink* sink = graph::capture_sink()) {
    graph::GraphOp op;
    op.kind = graph::OpKind::kConcatRows;
    for (const Tensor& part : values) {
      op.inputs.push_back(sink->value_for(part));
    }
    op.output = sink->bind_output(value);
    sink->record(std::move(op));
  }
  std::vector<std::int64_t> lengths;
  lengths.reserve(parts.size());
  for (const Var& p : parts) lengths.push_back(p.value().dim(0));
  return make_op(std::move(value), parts, [parts, lengths](const Tensor& g) {
    std::int64_t offset = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      accumulate_into(parts[i], g.slice(0, offset, lengths[i]));
      offset += lengths[i];
    }
  });
}

Var permute_rows(const Var& x, const std::vector<std::int64_t>& perm) {
  const Tensor& value = x.value();
  ORBIT2_REQUIRE(value.rank() >= 1, "permute_rows needs rank >= 1");
  const std::int64_t rows = value.dim(0);
  ORBIT2_REQUIRE(static_cast<std::int64_t>(perm.size()) == rows,
                 "perm size " << perm.size() << " vs rows " << rows);
  const std::int64_t inner = value.numel() / std::max<std::int64_t>(1, rows);

  // Validate bijection and build the inverse for backward.
  std::vector<std::int64_t> inverse(perm.size(),
                                    std::numeric_limits<std::int64_t>::min());
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t src = perm[static_cast<std::size_t>(i)];
    ORBIT2_REQUIRE(src >= 0 && src < rows, "perm entry out of range");
    ORBIT2_REQUIRE(inverse[static_cast<std::size_t>(src)] ==
                       std::numeric_limits<std::int64_t>::min(),
                   "perm is not a bijection (duplicate " << src << ")");
    inverse[static_cast<std::size_t>(src)] = i;
  }

  Tensor out(value.shape());
  const float* src = value.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(inner), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::int64_t from = perm[static_cast<std::size_t>(i)];
          std::copy(src + from * inner, src + (from + 1) * inner,
                    dst + i * inner);
        }
      });
  capture_op(out, graph::OpKind::kPermuteRows, {&value}, {}, {}, perm);
  return make_op(std::move(out), {x}, [x, inverse, inner, rows](const Tensor& g) {
    Tensor grad(g.shape());
    const float* gs = g.data().data();
    float* gd = grad.data().data();
    kernels::parallel_for(
        rows, kernels::grain_for(inner),
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            const std::int64_t to = inverse[static_cast<std::size_t>(i)];
            std::copy(gs + to * inner, gs + (to + 1) * inner, gd + i * inner);
          }
        });
    accumulate_into(x, grad);
  });
}

Var layernorm(const Var& x, const Var& gamma, const Var& beta, float epsilon) {
  Tensor saved_mean, saved_inv_std;
  Tensor value = layernorm_rows(x.value(), gamma.value(), beta.value(),
                                epsilon, &saved_mean, &saved_inv_std);
  capture_op(value, graph::OpKind::kLayerNorm,
             {&x.value(), &gamma.value(), &beta.value()}, {}, {epsilon});
  Tensor input = x.value();
  Tensor gamma_value = gamma.value();
  return make_op(
      std::move(value), {x, gamma, beta},
      [x, gamma, beta, input, gamma_value, saved_mean,
       saved_inv_std](const Tensor& g) {
        Tensor grad_gamma = Tensor::zeros(gamma_value.shape());
        Tensor grad_beta = Tensor::zeros(gamma_value.shape());
        Tensor grad_input =
            layernorm_rows_backward(g, input, gamma_value, saved_mean,
                                    saved_inv_std, grad_gamma, grad_beta);
        accumulate_into(x, grad_input);
        if (gamma.needs_grad()) accumulate_into(gamma, grad_gamma);
        if (beta.needs_grad()) accumulate_into(beta, grad_beta);
      });
}

Var sum(const Var& x) {
  if (graph::capture_sink() != nullptr) {
    ORBIT2_FAIL("sum() has no graph replay rule");
  }
  Tensor value = Tensor::scalar(x.value().sum());
  const Shape in_shape = x.shape();
  return make_op(std::move(value), {x}, [x, in_shape](const Tensor& g) {
    accumulate_into(x, Tensor::full(in_shape, g.item()));
  });
}

Var mean(const Var& x) {
  if (graph::capture_sink() != nullptr) {
    ORBIT2_FAIL("mean() has no graph replay rule");
  }
  const float inv_n = 1.0f / static_cast<float>(x.value().numel());
  Tensor value = Tensor::scalar(x.value().mean());
  const Shape in_shape = x.shape();
  return make_op(std::move(value), {x}, [x, in_shape, inv_n](const Tensor& g) {
    accumulate_into(x, Tensor::full(in_shape, g.item() * inv_n));
  });
}

Var conv2d(const Var& x, const Var& weight, const Var& bias,
           const Conv2dSpec& spec) {
  Tensor value = conv2d_forward(x.value(), weight.value(), bias.value(), spec);
  capture_op(value, graph::OpKind::kConv2d,
             {&x.value(), &weight.value(), &bias.value()},
             {spec.kernel_h, spec.kernel_w, spec.stride, spec.pad});
  Tensor input = x.value();
  Tensor weight_value = weight.value();
  const std::int64_t in_h = input.dim(1), in_w = input.dim(2);
  return make_op(
      std::move(value), {x, weight, bias},
      [x, weight, bias, input, weight_value, in_h, in_w,
       spec](const Tensor& g) {
        if (x.needs_grad()) {
          accumulate_into(
              x, conv2d_backward_input(g, weight_value, in_h, in_w, spec));
        }
        if (weight.needs_grad() || bias.needs_grad()) {
          Tensor grad_weight = Tensor::zeros(weight_value.shape());
          Tensor grad_bias = Tensor::zeros(Shape{weight_value.dim(0)});
          conv2d_backward_params(g, input, grad_weight, grad_bias, spec);
          if (weight.needs_grad()) accumulate_into(weight, grad_weight);
          if (bias.needs_grad()) accumulate_into(bias, grad_bias);
        }
      });
}

Var upsample_bilinear(const Var& x, std::int64_t out_h, std::int64_t out_w) {
  Tensor value = resize_bilinear(x.value(), out_h, out_w);
  capture_op(value, graph::OpKind::kResizeBilinear, {&x.value()});
  const std::int64_t in_h = x.value().dim(1), in_w = x.value().dim(2);
  return make_op(std::move(value), {x}, [x, in_h, in_w](const Tensor& g) {
    accumulate_into(x, resize_bilinear_backward(g, in_h, in_w));
  });
}

Var image_to_tokens(const Var& image, std::int64_t patch) {
  Tensor value = image_to_tokens_raw(image.value(), patch);
  capture_op(value, graph::OpKind::kImageToTokens, {&image.value()}, {patch});
  const std::int64_t c = image.value().dim(0);
  const std::int64_t h = image.value().dim(1);
  const std::int64_t w = image.value().dim(2);
  return make_op(std::move(value), {image},
                 [image, c, h, w, patch](const Tensor& g) {
                   accumulate_into(image, tokens_to_image_raw(g, c, h, w, patch));
                 });
}

Var tokens_to_image(const Var& tokens, std::int64_t channels, std::int64_t h,
                    std::int64_t w, std::int64_t patch) {
  Tensor value = tokens_to_image_raw(tokens.value(), channels, h, w, patch);
  capture_op(value, graph::OpKind::kTokensToImage, {&tokens.value()},
             {channels, h, w, patch});
  return make_op(std::move(value), {tokens},
                 [tokens, patch](const Tensor& g) {
                   accumulate_into(tokens, image_to_tokens_raw(g, patch));
                 });
}

Var multihead_self_attention(const Var& x, const MhaWeights& weights,
                             std::int64_t heads, bool use_flash,
                             const Tensor* partition) {
  ORBIT2_REQUIRE(x.value().rank() == 2, "mha expects [N, D] tokens");
  const std::int64_t n = x.value().dim(0);
  const std::int64_t d = x.value().dim(1);
  ORBIT2_REQUIRE(heads >= 1 && d % heads == 0,
                 "head count " << heads << " must divide model dim " << d);
  const std::int64_t dh = d / heads;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t rows =
      partition != nullptr ? static_cast<std::int64_t>(partition->data()[0])
                           : n;
  ORBIT2_REQUIRE(rows >= 0 && rows <= n,
                 "live rows " << rows << " outside [0, " << n << "]");

  // Everything below runs on the live rows; padding is re-added at the end.
  const Tensor xv = rows == n ? x.value() : x.value().slice(0, 0, rows);

  // Projections.
  auto project = [&](const Var& w, const Var& b) {
    Tensor out = orbit2::matmul(xv, w.value());
    add_bias_inplace(out, b.value().data().data());
    return out;
  };
  Tensor q = project(weights.wq, weights.bq);
  Tensor k = project(weights.wk, weights.bk);
  Tensor v = project(weights.wv, weights.bv);

  // Per-head attention; contexts saved for backward.
  auto contexts = std::make_shared<std::vector<AttentionContext>>(
      static_cast<std::size_t>(heads));
  Tensor concat(Shape{rows, d});
  for (std::int64_t hd = 0; hd < heads; ++hd) {
    const Tensor qh = slice_cols(q, hd * dh, dh);
    const Tensor kh = slice_cols(k, hd * dh, dh);
    const Tensor vh = slice_cols(v, hd * dh, dh);
    AttentionContext& ctx = (*contexts)[static_cast<std::size_t>(hd)];
    Tensor oh = use_flash
                    ? attention_flash_forward(qh, kh, vh, attn_scale, &ctx)
                    : attention_naive_forward(qh, kh, vh, attn_scale, &ctx);
    set_cols(concat, hd * dh, oh);
  }

  // Output projection.
  Tensor out = orbit2::matmul(concat, weights.wo.value());
  add_bias_inplace(out, weights.bo.value().data().data());
  if (rows < n) out = pad_rows(out, n);

  if (graph::CaptureSink* sink = graph::capture_sink()) {
    // One composite op per MHA call; the executor replays the identical
    // project / per-head attention / reassemble / project sequence out of
    // planned workspaces (q, k, v, concat full-width; per-head tiles; one
    // score matrix or log-sum-exp vector depending on the kernel), sized for
    // all N rows.
    graph::GraphOp op;
    op.kind = graph::OpKind::kMhsa;
    op.inputs = {sink->value_for(x.value()),
                 sink->value_for(weights.wq.value()),
                 sink->value_for(weights.bq.value()),
                 sink->value_for(weights.wk.value()),
                 sink->value_for(weights.bk.value()),
                 sink->value_for(weights.wv.value()),
                 sink->value_for(weights.bv.value()),
                 sink->value_for(weights.wo.value()),
                 sink->value_for(weights.bo.value())};
    if (partition != nullptr) op.inputs.push_back(sink->value_for(*partition));
    op.iparams = {heads, use_flash ? std::int64_t{1} : std::int64_t{0}};
    op.fparams = {attn_scale};
    for (int i = 0; i < 4; ++i) {
      op.workspaces.push_back(sink->add_workspace(Shape{n, d}));
    }
    for (int i = 0; i < 4; ++i) {
      op.workspaces.push_back(sink->add_workspace(Shape{n, dh}));
    }
    op.workspaces.push_back(
        sink->add_workspace(use_flash ? Shape{n} : Shape{n, n}));
    op.output = sink->bind_output(out);
    sink->record(std::move(op));
  }

  std::vector<Var> parents = {x,          weights.wq, weights.wk, weights.wv,
                              weights.wo, weights.bq, weights.bk, weights.bv,
                              weights.bo};
  const Tensor wo_value = weights.wo.value();
  const Tensor wq_value = weights.wq.value();
  const Tensor wk_value = weights.wk.value();
  const Tensor wv_value = weights.wv.value();

  return make_op(
      std::move(out), parents,
      [x, weights, contexts, concat, xv, wo_value, wq_value, wk_value,
       wv_value, heads, dh, n, rows, d, use_flash](const Tensor& g_all) {
        // Padded rows took no part in the forward: they get no gradient.
        const Tensor g = rows == n ? g_all : g_all.slice(0, 0, rows);

        // Output projection backward.
        if (weights.wo.needs_grad()) {
          accumulate_into(weights.wo, matmul_tn(concat, g));
        }
        if (weights.bo.needs_grad()) accumulate_into(weights.bo, colsum(g));
        const Tensor d_concat = matmul_nt(g, wo_value);

        // Per-head attention backward, reassembled into [rows, D] grads.
        Tensor dq(Shape{rows, d}), dk(Shape{rows, d}), dv(Shape{rows, d});
        for (std::int64_t hd = 0; hd < heads; ++hd) {
          const Tensor d_oh = slice_cols(d_concat, hd * dh, dh);
          const AttentionContext& ctx = (*contexts)[static_cast<std::size_t>(hd)];
          AttentionGrads grads = use_flash
                                     ? attention_flash_backward(ctx, d_oh)
                                     : attention_naive_backward(ctx, d_oh);
          set_cols(dq, hd * dh, grads.dq);
          set_cols(dk, hd * dh, grads.dk);
          set_cols(dv, hd * dh, grads.dv);
        }

        // Projection backward: accumulate into weights and into x.
        Tensor dx = Tensor::zeros(Shape{rows, d});
        auto unproject = [&](const Tensor& dproj, const Var& w, const Var& b,
                             const Tensor& w_value) {
          if (w.needs_grad()) accumulate_into(w, matmul_tn(xv, dproj));
          if (b.needs_grad()) accumulate_into(b, colsum(dproj));
          dx.add_inplace(matmul_nt(dproj, w_value));
        };
        unproject(dq, weights.wq, weights.bq, wq_value);
        unproject(dk, weights.wk, weights.bk, wk_value);
        unproject(dv, weights.wv, weights.bv, wv_value);
        accumulate_into(x, rows == n ? dx : pad_rows(dx, n));
      });
}

}  // namespace orbit2::autograd
