#include "graph/executor.hpp"

#include <algorithm>
#include <cstring>
#include <span>

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

Executor::Executor(std::shared_ptr<const Plan> plan) : plan_(std::move(plan)) {
  ORBIT2_REQUIRE(plan_ != nullptr, "Executor on null plan");
  const CapturedGraph& g = plan_->graph;

  std::vector<std::shared_ptr<core::FloatStorage>> slots;
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
    case OpKind::kPermuteRows:
      gather_rows_into(value(op.inputs[0]), op.perm, mutable_value(op.output));
      return;
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
  // contiguous simd primitive call, gelu included. Every element sees the
  // same operations in the same order as the eager ops, so results are
  // bitwise identical. When the planner runs a chain in place, no aux
  // operand shares the output buffer (compile_plan declines that case), so
  // no stage rereads an element an earlier stage overwrote. The AC variants
  // share the CA primitives: a+b and b+a (and a*b / b*a) round identically
  // for every non-NaN input, and for NaN payloads the operand order was
  // already compiler-chosen in the scalar loops this replaces.
  const simd::Ops& sops = simd::ops();
  kernels::parallel_for(
      out.numel(), kElementwiseGrain, [&](std::int64_t i0, std::int64_t i1) {
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
              sops.gelu_f32(dst + i0, dst + i0, i1 - i0);
              break;
            // Row-broadcast adds: the eager ops' add_table_rows body.
            case EwKind::kAddBiasRows:
              add_table_rows_f32(dst, i0, i1, aux, st.a, kAllRows);
              break;
            case EwKind::kAddTableRow:
              add_table_rows_f32(dst, i0, i1, aux + st.b * st.a, st.a,
                                 kAllRows);
              break;
            case EwKind::kAddVarEmb:
              add_table_rows_f32(dst, i0, i1, aux, st.a, st.b);
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
  // A tenth input is a partition value: only its first L rows are live, and
  // the op runs on prefix views of its planned [N, ...] buffers, exactly as
  // the eager op runs on the live [L, D] tokens.
  const std::int64_t rows =
      op.inputs.size() > 9
          ? static_cast<std::int64_t>(value(op.inputs[9]).data()[0])
          : n;
  auto live = [&](ValueId v, Shape shape) {
    return mutable_value(v).prefix(shape);
  };

  Tensor q = live(op.workspaces[0], Shape{rows, d});
  Tensor k = live(op.workspaces[1], Shape{rows, d});
  Tensor v = live(op.workspaces[2], Shape{rows, d});
  Tensor concat = live(op.workspaces[3], Shape{rows, d});
  AttentionBuffers head{
      live(op.workspaces[4], Shape{rows, dh}),
      live(op.workspaces[5], Shape{rows, dh}),
      live(op.workspaces[6], Shape{rows, dh}),
      live(op.workspaces[7], Shape{rows, dh}),
      live(op.workspaces[8], use_flash ? Shape{rows} : Shape{rows, rows})};
  Tensor out = live(op.output, Shape{rows, d});
  multihead_attention_forward_into(
      x_all.prefix(Shape{rows, d}),
      {value(op.inputs[1]), value(op.inputs[2]), value(op.inputs[3]),
       value(op.inputs[4]), value(op.inputs[5]), value(op.inputs[6]),
       value(op.inputs[7]), value(op.inputs[8])},
      heads, use_flash, op.fparams[0], q, k, v, concat,
      std::span<AttentionBuffers>(&head, 1), out);
  float* pad = mutable_value(op.output).data().data();
  std::fill(pad + rows * d, pad + n * d, 0.0f);
}

}  // namespace orbit2::graph
