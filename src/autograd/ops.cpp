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

// Under an active graph::CaptureScope every forward op records itself
// through the graph/ir.hpp capture helpers after computing its value
// eagerly.
using graph::capture_elementwise;
using graph::capture_op;
using graph::ew_kind_name;
using graph::EwKind;
using graph::op_kind_name;
using graph::OpKind;

namespace {

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

}  // namespace

Var add(const Var& a, const Var& b) {
  Tensor value = a.value().add(b.value());
  capture_elementwise(value, a.value(), &b.value(),
                      {graph::EwKind::kAddCA});
  return make_op(ew_kind_name(EwKind::kAddCA), std::move(value), {a, b},
                 [a, b](const Tensor& g) {
                   accumulate_into(a, g);
                   accumulate_into(b, g);
                 });
}

Var sub(const Var& a, const Var& b) {
  Tensor value = a.value().sub(b.value());
  capture_elementwise(value, a.value(), &b.value(),
                      {graph::EwKind::kSubCA});
  return make_op(ew_kind_name(EwKind::kSubCA), std::move(value), {a, b},
                 [a, b](const Tensor& g) {
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
  return make_op(ew_kind_name(EwKind::kMulCA), std::move(value), {a, b},
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
  return make_op(ew_kind_name(EwKind::kScale), std::move(value), {a},
                 [a, factor](const Tensor& g) {
                   accumulate_into(a, g.mul_scalar(factor));
                 });
}

Var gelu(const Var& a) {
  Tensor value = orbit2::gelu(a.value());
  capture_elementwise(value, a.value(), nullptr, {graph::EwKind::kGelu});
  Tensor input = a.value();
  return make_op(ew_kind_name(EwKind::kGelu), std::move(value), {a},
                 [a, input](const Tensor& g) {
                   accumulate_into(a, gelu_backward(input, g));
                 });
}

Var matmul(const Var& a, const Var& b) {
  Tensor value = orbit2::matmul(a.value(), b.value());
  capture_op(value, graph::OpKind::kMatmul, {&a.value(), &b.value()});
  Tensor av = a.value();
  Tensor bv = b.value();
  // Backward runs one gemm of the forward's size per input needing a grad.
  const std::int64_t flops = 2 * av.dim(0) * av.dim(1) * bv.dim(1) *
                             (int{a.needs_grad()} + int{b.needs_grad()});
  return make_op(
      op_kind_name(OpKind::kMatmul), std::move(value), {a, b},
      [a, b, av, bv](const Tensor& g) {
        if (a.needs_grad()) accumulate_into(a, matmul_nt(g, bv));
        if (b.needs_grad()) accumulate_into(b, matmul_tn(av, g));
      },
      flops);
}

Var add_bias_rows(const Var& x, const Var& bias) {
  ORBIT2_REQUIRE(x.value().rank() == 2 && bias.value().rank() == 1,
                 "add_bias_rows expects [N,D] + [D]");
  ORBIT2_REQUIRE(x.value().dim(1) == bias.value().dim(0),
                 "add_bias_rows width mismatch");
  Tensor value = x.value().clone();
  add_table_rows_inplace(value, bias.value().data().data(), kAllRows);
  graph::EwStage bias_stage{graph::EwKind::kAddBiasRows};
  bias_stage.a = bias.value().dim(0);
  capture_elementwise(value, x.value(), &bias.value(), bias_stage);
  return make_op(ew_kind_name(EwKind::kAddBiasRows), std::move(value),
                 {x, bias}, [x, bias](const Tensor& g) {
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
  return make_op(op_kind_name(OpKind::kView), std::move(value), {x},
                 [x, old_shape](const Tensor& g) {
                   accumulate_into(x, g.reshape(old_shape));
                 });
}

Var slice_rows(const Var& x, std::int64_t start, std::int64_t len) {
  Tensor value = x.value().slice(0, start, len);
  capture_op(value, graph::OpKind::kSliceRows, {&x.value()}, {start, len});
  const Shape full = x.shape();
  return make_op(op_kind_name(OpKind::kSliceRows), std::move(value), {x},
                 [x, full, start](const Tensor& g) {
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
  if (graph::capture_sink() != nullptr) {
    std::vector<const Tensor*> inputs;
    for (const Tensor& part : values) inputs.push_back(&part);
    capture_op(value, graph::OpKind::kConcatRows, inputs);
  }
  std::vector<std::int64_t> lengths;
  lengths.reserve(parts.size());
  for (const Var& p : parts) lengths.push_back(p.value().dim(0));
  return make_op(op_kind_name(OpKind::kConcatRows), std::move(value), parts,
                 [parts, lengths](const Tensor& g) {
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
  gather_rows_into(value, perm, out);
  capture_op(out, graph::OpKind::kPermuteRows, {&value}, {}, {}, {}, perm);
  return make_op(op_kind_name(OpKind::kPermuteRows), std::move(out), {x},
                 [x, inverse](const Tensor& g) {
                   Tensor grad(g.shape());
                   gather_rows_into(g, inverse, grad);
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
      op_kind_name(OpKind::kLayerNorm), std::move(value), {x, gamma, beta},
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
  return make_op("sum", std::move(value), {x}, [x, in_shape](const Tensor& g) {
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
  return make_op("mean", std::move(value), {x},
                 [x, in_shape, inv_n](const Tensor& g) {
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
  // conv2d_backward_input and conv2d_backward_params each do the forward's
  // multiply-adds.
  const bool params_grad = weight.needs_grad() || bias.needs_grad();
  const std::int64_t flops = 2 * value.numel() * weight_value.numel() /
                             weight_value.dim(0) *
                             (int{x.needs_grad()} + int{params_grad});
  return make_op(
      op_kind_name(OpKind::kConv2d), std::move(value), {x, weight, bias},
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
      },
      flops);
}

Var upsample_bilinear(const Var& x, std::int64_t out_h, std::int64_t out_w) {
  Tensor value = resize_bilinear(x.value(), out_h, out_w);
  capture_op(value, graph::OpKind::kResizeBilinear, {&x.value()});
  const std::int64_t in_h = x.value().dim(1), in_w = x.value().dim(2);
  return make_op(op_kind_name(OpKind::kResizeBilinear), std::move(value), {x},
                 [x, in_h, in_w](const Tensor& g) {
                   accumulate_into(x, resize_bilinear_backward(g, in_h, in_w));
                 });
}

Var image_to_tokens(const Var& image, std::int64_t patch) {
  Tensor value = image_to_tokens_raw(image.value(), patch);
  capture_op(value, graph::OpKind::kImageToTokens, {&image.value()}, {patch});
  const std::int64_t c = image.value().dim(0);
  const std::int64_t h = image.value().dim(1);
  const std::int64_t w = image.value().dim(2);
  return make_op(
      op_kind_name(OpKind::kImageToTokens), std::move(value), {image},
      [image, c, h, w, patch](const Tensor& g) {
        accumulate_into(image, tokens_to_image_raw(g, c, h, w, patch));
      });
}

Var tokens_to_image(const Var& tokens, std::int64_t channels, std::int64_t h,
                    std::int64_t w, std::int64_t patch) {
  Tensor value = tokens_to_image_raw(tokens.value(), channels, h, w, patch);
  capture_op(value, graph::OpKind::kTokensToImage, {&tokens.value()},
             {channels, h, w, patch});
  return make_op(op_kind_name(OpKind::kTokensToImage), std::move(value),
                 {tokens}, [tokens, patch](const Tensor& g) {
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

  // The forward runs on the live rows [0, L); output rows from L on stay
  // zero. Fresh per-head buffers become the heads' backward contexts.
  const Tensor xv = x.value().prefix(Shape{rows, d});
  const Shape head_shape{rows, dh};
  const Shape saved_shape = use_flash ? Shape{rows} : Shape{rows, rows};
  std::vector<AttentionBuffers> head_buffers;
  head_buffers.reserve(static_cast<std::size_t>(heads));
  for (std::int64_t hd = 0; hd < heads; ++hd) {
    head_buffers.push_back({Tensor(head_shape), Tensor(head_shape),
                            Tensor(head_shape), Tensor(head_shape),
                            Tensor(saved_shape)});
  }
  Tensor q(Shape{rows, d}), k(Shape{rows, d}), v(Shape{rows, d});
  Tensor concat(Shape{rows, d});
  Tensor out(Shape{n, d});
  Tensor live_out = out.prefix(Shape{rows, d});
  multihead_attention_forward_into(
      xv,
      {weights.wq.value(), weights.bq.value(), weights.wk.value(),
       weights.bk.value(), weights.wv.value(), weights.bv.value(),
       weights.wo.value(), weights.bo.value()},
      heads, use_flash, attn_scale, q, k, v, concat, head_buffers, live_out);
  auto contexts = std::make_shared<std::vector<AttentionContext>>();
  contexts->reserve(head_buffers.size());
  for (const AttentionBuffers& b : head_buffers) {
    contexts->push_back(attention_context(b, attn_scale, use_flash));
  }

  // One composite op per MHA call, replayed out of planned workspaces sized
  // for all N rows: q, k, v, concat; per-head q, k, v, out; one score matrix
  // or log-sum-exp vector depending on the kernel.
  if (graph::capture_sink() != nullptr) {
    std::vector<const Tensor*> inputs = {
        &x.value(),          &weights.wq.value(), &weights.bq.value(),
        &weights.wk.value(), &weights.bk.value(), &weights.wv.value(),
        &weights.bv.value(), &weights.wo.value(), &weights.bo.value()};
    if (partition != nullptr) inputs.push_back(partition);
    const Shape full{n, d}, head{n, dh};
    capture_op(out, graph::OpKind::kMhsa, inputs,
               {heads, use_flash ? std::int64_t{1} : std::int64_t{0}},
               {attn_scale}, {full, full, full, full, head, head, head, head,
                              use_flash ? Shape{n} : Shape{n, n}});
  }

  std::vector<Var> parents = {x,          weights.wq, weights.wk, weights.wv,
                              weights.wo, weights.bq, weights.bk, weights.bv,
                              weights.bo};
  const Tensor wo_value = weights.wo.value();
  const Tensor wq_value = weights.wq.value();
  const Tensor wk_value = weights.wk.value();
  const Tensor wv_value = weights.wv.value();

  // Backward: two gemms per projection (eight [rows, d] x [d, d] in all),
  // and per head the dP, dV, dQ and dK products, plus the score recompute
  // in the flash kernel.
  const std::int64_t flops =
      16 * rows * d * d + (use_flash ? 10 : 8) * rows * rows * d;
  return make_op(
      op_kind_name(OpKind::kMhsa), std::move(out), parents,
      [x, weights, contexts, concat, xv, wo_value, wq_value, wk_value,
       wv_value, heads, dh, n, rows, d, use_flash](const Tensor& g_all) {
        // Padded rows took no part in the forward: they get no gradient.
        const Tensor g = g_all.prefix(Shape{rows, d});

        // Output projection backward.
        if (weights.wo.needs_grad()) {
          accumulate_into(weights.wo, matmul_tn(concat, g));
        }
        if (weights.bo.needs_grad()) accumulate_into(weights.bo, colsum(g));
        const Tensor d_concat = matmul_nt(g, wo_value);

        // Per-head attention backward, reassembled into [rows, D] grads.
        Tensor dq(Shape{rows, d}), dk(Shape{rows, d}), dv(Shape{rows, d});
        Tensor d_oh(Shape{rows, dh});
        for (std::int64_t hd = 0; hd < heads; ++hd) {
          copy_cols_into(d_concat, hd * dh, d_oh);
          const AttentionContext& ctx = (*contexts)[static_cast<std::size_t>(hd)];
          AttentionGrads grads = use_flash
                                     ? attention_flash_backward(ctx, d_oh)
                                     : attention_naive_backward(ctx, d_oh);
          paste_cols(grads.dq, hd * dh, dq);
          paste_cols(grads.dk, hd * dh, dk);
          paste_cols(grads.dv, hd * dh, dv);
        }

        // Projection backward: accumulate into weights and into x.
        Tensor dx_all = Tensor::zeros(Shape{n, d});
        Tensor dx = dx_all.prefix(Shape{rows, d});
        auto unproject = [&](const Tensor& dproj, const Var& w, const Var& b,
                             const Tensor& w_value) {
          if (w.needs_grad()) accumulate_into(w, matmul_tn(xv, dproj));
          if (b.needs_grad()) accumulate_into(b, colsum(dproj));
          dx.add_inplace(matmul_nt(dproj, w_value));
        };
        unproject(dq, weights.wq, weights.bq, wq_value);
        unproject(dk, weights.wk, weights.bk, wk_value);
        unproject(dv, weights.wv, weights.bv, wv_value);
        accumulate_into(x, dx_all);
      },
      flops);
}

}  // namespace orbit2::autograd
