#include "graph/executor.hpp"

#include <algorithm>
#include <cstring>

#include "attention/attention.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/patches.hpp"
#include "tensor/resize.hpp"

namespace orbit2::graph {

namespace {

// Data-movement helpers mirroring the autograd MHA's slice_cols / set_cols /
// add_bias_inplace loops exactly (pure copies and per-element adds are
// bit-identical for any partitioning).

void copy_cols(const Tensor& x, std::int64_t start, std::int64_t len,
               Tensor& out) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
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

void paste_cols(Tensor& x, std::int64_t start, const Tensor& block) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  const std::int64_t len = block.dim(1);
  const float* src = block.data().data();
  float* dst = x.data().data();
  kernels::parallel_for(
      rows, kernels::grain_for(len), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::copy(src + r * len, src + r * len + len, dst + r * cols + start);
        }
      });
}

void add_bias_rows_inplace(Tensor& x, const float* bias) {
  const std::int64_t rows = x.dim(0), cols = x.dim(1);
  float* dst = x.data().data();
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(
      rows, kernels::grain_for(cols), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          sops.add_f32(dst + r * cols, bias, cols);
        }
      });
}

// Matches the eager elementwise grain (tensor/ops.cpp kElementwiseGrain).
constexpr std::int64_t kEwGrain = std::int64_t{1} << 14;

}  // namespace

Executor::Executor(std::shared_ptr<const Plan> plan) : plan_(std::move(plan)) {
  ORBIT2_REQUIRE(plan_ != nullptr, "Executor on null plan");
  const CapturedGraph& g = plan_->graph;

  std::vector<std::shared_ptr<std::vector<float>>> slots;
  slots.reserve(plan_->slot_numel.size());
  for (std::int64_t numel : plan_->slot_numel) {
    slots.push_back(arena_.add_buffer(numel));
  }

  values_.resize(g.values.size());
  std::size_t max_stages = 0;
  for (const GraphOp& op : g.ops) {
    max_stages = std::max(max_stages, op.stages.size());
  }
  stage_aux_.assign(max_stages, nullptr);

  for (std::size_t v = 0; v < g.values.size(); ++v) {
    const ValueInfo& info = g.values[v];
    if (info.is_leaf) {
      values_[v] = info.leaf;  // shares captured storage, no copy
    } else if (plan_->slot_of[v] >= 0) {
      values_[v] = Tensor::with_storage(
          info.shape, slots[static_cast<std::size_t>(plan_->slot_of[v])]);
    }
    // Runtime input and kView aliases are (re)bound inside run().
  }
}

const Tensor& Executor::run(const Tensor& input) {
  const CapturedGraph& g = plan_->graph;
  const ValueInfo& in_info = g.values[static_cast<std::size_t>(g.input)];
  ORBIT2_REQUIRE(input.shape() == in_info.shape,
                 "compiled plan expects input " << in_info.shape.to_string()
                                                << ", got "
                                                << input.shape().to_string());
  values_[static_cast<std::size_t>(g.input)] = input;
  for (const GraphOp& op : g.ops) dispatch(op);
  ORBIT2_OBS_COUNT("graph/replay", 1);
  return values_[static_cast<std::size_t>(g.output)];
}

void Executor::dispatch(const GraphOp& op) {
  ORBIT2_OBS_SPAN_ARG("graph/op", "graph", "kind",
                      static_cast<std::int64_t>(op.kind));
  switch (op.kind) {
    case OpKind::kElementwise:
      run_elementwise(op);
      return;
    case OpKind::kMatmul: {
      const Tensor& a = value(op.inputs[0]);
      const Tensor& b = value(op.inputs[1]);
      Tensor& out = mutable_value(op.output);
      kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, a.dim(0), b.dim(1),
                    a.dim(1), a.data().data(), b.data().data(),
                    out.data().data());
      return;
    }
    case OpKind::kLayerNorm: {
      const Tensor& x = value(op.inputs[0]);
      const Tensor& gamma = value(op.inputs[1]);
      const Tensor& beta = value(op.inputs[2]);
      layernorm_rows_into(x, gamma, beta, op.fparams[0],
                          mutable_value(op.output), nullptr, nullptr);
      return;
    }
    case OpKind::kSliceRows: {
      // Axis-0 slice of a contiguous tensor is one contiguous copy.
      const Tensor& x = value(op.inputs[0]);
      Tensor& out = mutable_value(op.output);
      const std::int64_t rows = x.dim(0);
      const std::int64_t inner = x.numel() / std::max<std::int64_t>(1, rows);
      const float* src = x.data().data() + op.iparams[0] * inner;
      std::copy(src, src + op.iparams[1] * inner, out.data().data());
      return;
    }
    case OpKind::kConcatRows: {
      Tensor& out = mutable_value(op.output);
      float* dst = out.data().data();
      for (ValueId in : op.inputs) {
        const Tensor& part = value(in);
        dst = std::copy(part.data().data(),
                        part.data().data() + part.numel(), dst);
      }
      return;
    }
    case OpKind::kPermuteRows: {
      const Tensor& x = value(op.inputs[0]);
      Tensor& out = mutable_value(op.output);
      const std::int64_t rows = x.dim(0);
      const std::int64_t inner = x.numel() / std::max<std::int64_t>(1, rows);
      const float* src = x.data().data();
      float* dst = out.data().data();
      const std::vector<std::int64_t>& perm = op.perm;
      kernels::parallel_for(
          rows, kernels::grain_for(inner),
          [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
              const std::int64_t from = perm[static_cast<std::size_t>(i)];
              std::copy(src + from * inner, src + (from + 1) * inner,
                        dst + i * inner);
            }
          });
      return;
    }
    case OpKind::kConv2d: {
      Conv2dSpec spec;
      spec.kernel_h = op.iparams[0];
      spec.kernel_w = op.iparams[1];
      spec.stride = op.iparams[2];
      spec.pad = op.iparams[3];
      conv2d_forward_into(value(op.inputs[0]), value(op.inputs[1]),
                          value(op.inputs[2]), spec, mutable_value(op.output));
      return;
    }
    case OpKind::kResizeBilinear:
      resize_bilinear_into(value(op.inputs[0]), mutable_value(op.output));
      return;
    case OpKind::kImageToTokens:
      image_to_tokens_into(value(op.inputs[0]), op.iparams[0],
                           mutable_value(op.output));
      return;
    case OpKind::kTokensToImage:
      tokens_to_image_into(value(op.inputs[0]), op.iparams[3],
                           mutable_value(op.output));
      return;
    case OpKind::kMhsa:
      run_mhsa(op);
      return;
    case OpKind::kView: {
      const std::size_t out = static_cast<std::size_t>(op.output);
      values_[out] =
          value(op.inputs[0]).reshape(plan_->graph.values[out].shape);
      return;
    }
    case OpKind::kCustom:
      ORBIT2_REQUIRE(op.custom != nullptr, "kCustom op without replay fn");
      op.custom(op, *this);
      return;
  }
  ORBIT2_FAIL("unhandled graph op kind");
}

void Executor::run_elementwise(const GraphOp& op) {
  const Tensor& in0 = value(op.inputs[0]);
  Tensor& out = mutable_value(op.output);
  const std::vector<EwStage>& stages = op.stages;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    stage_aux_[s] = stages[s].aux != kNoValue
                        ? value(stages[s].aux).data().data()
                        : nullptr;
  }
  const float* src = in0.data().data();
  float* dst = out.data().data();
  const std::size_t num_stages = stages.size();
  const EwStage* stage = stages.data();
  const float* const* aux_ptrs = stage_aux_.data();

  // Stage-major over the cache-resident chunk, so each stage is one
  // contiguous simd primitive call (gelu stays scalar — it is not a
  // lane-wise primitive). Every element sees the same operations in the
  // same order as the eager ops, so results are bitwise identical. When the
  // planner runs a chain in place, no aux operand shares the output buffer
  // (compile_plan declines that case), so no stage rereads an element an
  // earlier stage overwrote. The AC variants share the CA primitives: a+b
  // and b+a (and a*b / b*a) round identically for every non-NaN input, and
  // for NaN payloads the operand order was already compiler-chosen in the
  // scalar loops this replaces.
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(
      out.numel(), kEwGrain, [&](std::int64_t i0, std::int64_t i1) {
        if (dst != src) {
          std::memcpy(dst + i0, src + i0,
                      static_cast<std::size_t>(i1 - i0) * sizeof(float));
        }
        for (std::size_t s = 0; s < num_stages; ++s) {
          const EwStage& st = stage[s];
          const float* aux = aux_ptrs[s];
          switch (st.kind) {
            case EwKind::kAddCA:
            case EwKind::kAddAC:
              sops.add_f32(dst + i0, aux + i0, i1 - i0);
              break;
            case EwKind::kSubCA:
              sops.sub_f32(dst + i0, aux + i0, i1 - i0);
              break;
            case EwKind::kSubAC:
              sops.rsub_f32(dst + i0, aux + i0, i1 - i0);
              break;
            case EwKind::kMulCA:
            case EwKind::kMulAC:
              sops.mul_f32(dst + i0, aux + i0, i1 - i0);
              break;
            case EwKind::kScale:
              sops.scale_f32(dst + i0, st.scalar, i1 - i0);
              break;
            case EwKind::kGelu:
              for (std::int64_t i = i0; i < i1; ++i) {
                dst[i] = gelu_scalar(dst[i]);
              }
              break;
            // Row-indexed adds run as contiguous per-row segments so each
            // segment is one primitive call, like the eager row loops they
            // replay.
            case EwKind::kAddBiasRows:
              for (std::int64_t i = i0; i < i1;) {
                const std::int64_t col = i % st.a;
                const std::int64_t run = std::min(i1 - i, st.a - col);
                sops.add_f32(dst + i, aux + col, run);
                i += run;
              }
              break;
            case EwKind::kAddTableRow: {
              const float* row = aux + st.b * st.a;
              for (std::int64_t i = i0; i < i1;) {
                const std::int64_t col = i % st.a;
                const std::int64_t run = std::min(i1 - i, st.a - col);
                sops.add_f32(dst + i, row + col, run);
                i += run;
              }
              break;
            }
            case EwKind::kAddVarEmb:
              // index = (i / (a*b)) * a + i % a.
              for (std::int64_t i = i0; i < i1;) {
                const std::int64_t col = i % st.a;
                const std::int64_t run = std::min(i1 - i, st.a - col);
                sops.add_f32(dst + i, aux + (i / (st.a * st.b)) * st.a + col,
                             run);
                i += run;
              }
              break;
          }
        }
      });
}

void Executor::run_mhsa(const GraphOp& op) {
  const Tensor& x_all = value(op.inputs[0]);
  const std::int64_t n = x_all.dim(0), d = x_all.dim(1);
  const std::int64_t heads = op.iparams[0];
  const bool use_flash = op.iparams[1] != 0;
  const std::int64_t dh = d / heads;
  const float attn_scale = op.fparams[0];
  // A tenth input is a partition value: only its first L rows are live, and
  // the op runs on prefix views of its planned [N, ...] buffers, exactly as
  // the eager op runs on the sliced [L, D] tokens.
  const std::int64_t rows =
      op.inputs.size() > 9
          ? static_cast<std::int64_t>(value(op.inputs[9]).data()[0])
          : n;
  auto live = [&](ValueId v, Shape shape) {
    return mutable_value(v).prefix(shape);
  };

  const Tensor x = x_all.prefix(Shape{rows, d});
  Tensor q = live(op.workspaces[0], Shape{rows, d});
  Tensor k = live(op.workspaces[1], Shape{rows, d});
  Tensor v = live(op.workspaces[2], Shape{rows, d});
  Tensor concat = live(op.workspaces[3], Shape{rows, d});
  Tensor qh = live(op.workspaces[4], Shape{rows, dh});
  Tensor kh = live(op.workspaces[5], Shape{rows, dh});
  Tensor vh = live(op.workspaces[6], Shape{rows, dh});
  Tensor oh = live(op.workspaces[7], Shape{rows, dh});
  Tensor attn_ws = live(op.workspaces[8],
                        use_flash ? Shape{rows} : Shape{rows, rows});

  // Projections: same gemm + bias-add sequence as the eager MHA.
  auto project = [&](ValueId w, ValueId b, Tensor& out) {
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, rows, d, d,
                  x.data().data(), value(w).data().data(), out.data().data());
    add_bias_rows_inplace(out, value(b).data().data());
  };
  project(op.inputs[1], op.inputs[2], q);
  project(op.inputs[3], op.inputs[4], k);
  project(op.inputs[5], op.inputs[6], v);

  for (std::int64_t hd = 0; hd < heads; ++hd) {
    copy_cols(q, hd * dh, dh, qh);
    copy_cols(k, hd * dh, dh, kh);
    copy_cols(v, hd * dh, dh, vh);
    if (use_flash) {
      attention_flash_forward_into(qh, kh, vh, attn_scale, oh, attn_ws);
    } else {
      attention_naive_forward_into(qh, kh, vh, attn_scale, attn_ws, oh);
    }
    paste_cols(concat, hd * dh, oh);
  }

  Tensor out = live(op.output, Shape{rows, d});
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, rows, d, d,
                concat.data().data(), value(op.inputs[7]).data().data(),
                out.data().data());
  add_bias_rows_inplace(out, value(op.inputs[8]).data().data());
  float* pad = mutable_value(op.output).data().data();
  std::fill(pad + rows * d, pad + n * d, 0.0f);
}

}  // namespace orbit2::graph
