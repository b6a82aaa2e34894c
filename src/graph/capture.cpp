#include "graph/ir.hpp"

#include <utility>

#include "core/error.hpp"

namespace orbit2::graph {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kElementwise:
      return "elementwise";
    case OpKind::kMatmul:
      return "matmul";
    case OpKind::kLayerNorm:
      return "layernorm";
    case OpKind::kSliceRows:
      return "slice_rows";
    case OpKind::kConcatRows:
      return "concat_rows";
    case OpKind::kPermuteRows:
      return "permute_rows";
    case OpKind::kConv2d:
      return "conv2d";
    case OpKind::kResizeBilinear:
      return "resize_bilinear";
    case OpKind::kImageToTokens:
      return "image_to_tokens";
    case OpKind::kTokensToImage:
      return "tokens_to_image";
    case OpKind::kMhsa:
      return "mhsa";
    case OpKind::kView:
      return "view";
    case OpKind::kCustom:
      return "custom";
  }
  return "unknown";
}

const char* ew_kind_name(EwKind kind) {
  switch (kind) {
    case EwKind::kAddCA:
    case EwKind::kAddAC:
      return "add";
    case EwKind::kSubCA:
    case EwKind::kSubAC:
      return "sub";
    case EwKind::kMulCA:
    case EwKind::kMulAC:
      return "mul";
    case EwKind::kScale:
      return "scale";
    case EwKind::kGelu:
      return "gelu";
    case EwKind::kAddBiasRows:
      return "add_bias_rows";
    case EwKind::kAddTableRow:
      return "add_table_row";
    case EwKind::kAddVarEmb:
      return "add_var_emb";
  }
  return "unknown";
}

namespace {
// The active sink for the calling thread. Capture is a per-thread protocol:
// tile replicas capturing concurrently each install their own sink.
thread_local CaptureSink* tl_sink = nullptr;
}  // namespace

CaptureSink* capture_sink() { return tl_sink; }

CaptureScope::CaptureScope(CaptureSink& sink) : previous_(tl_sink) {
  tl_sink = &sink;
}

CaptureScope::~CaptureScope() { tl_sink = previous_; }

CaptureSink::CaptureSink(const Tensor& input) {
  graph_.input = bind_tensor(input, /*is_leaf=*/false);
}

ValueId CaptureSink::bind_tensor(const Tensor& t, bool is_leaf) {
  const ValueId vid = static_cast<ValueId>(graph_.values.size());
  ValueInfo info;
  info.shape = t.shape();
  info.is_leaf = is_leaf;
  if (is_leaf) info.leaf = t;
  graph_.values.push_back(std::move(info));
  bindings_.emplace_back(t.data().data(), vid);
  // Hold a handle so the storage address stays unique for the whole capture:
  // without this, a freed temporary's heap address could be reused by a new
  // tensor and resolve to the stale value ID.
  keep_alive_.push_back(t);
  return vid;
}

ValueId CaptureSink::value_for(const Tensor& t) {
  const float* key = t.data().data();
  // Newest binding wins: matches program order when an address is rebound.
  for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
    if (it->first == key) return it->second;
  }
  // Unseen storage: a constant or parameter materialized outside the traced
  // op stream. Capture it as a leaf (shares storage, no copy).
  return bind_tensor(t, /*is_leaf=*/true);
}

ValueId CaptureSink::bind_output(const Tensor& t) {
  return bind_tensor(t, /*is_leaf=*/false);
}

ValueId CaptureSink::add_workspace(const Shape& shape) {
  const ValueId vid = static_cast<ValueId>(graph_.values.size());
  ValueInfo info;
  info.shape = shape;
  info.is_workspace = true;
  graph_.values.push_back(std::move(info));
  return vid;
}

void CaptureSink::record(GraphOp op) {
  ORBIT2_REQUIRE(op.output != kNoValue, "graph op recorded without output");
  graph_.ops.push_back(std::move(op));
}

void CaptureSink::record_view(const Tensor& out, const Tensor& src) {
  const ValueId src_vid = value_for(src);
  const ValueId out_vid = bind_output(out);
  graph_.values[static_cast<std::size_t>(out_vid)].view_of = src_vid;
  GraphOp op;
  op.kind = OpKind::kView;
  op.name = op_kind_name(OpKind::kView);
  op.inputs = {src_vid};
  op.output = out_vid;
  graph_.ops.push_back(std::move(op));
}

CapturedGraph CaptureSink::take(const Tensor& output) {
  const float* key = output.data().data();
  ValueId out_vid = kNoValue;
  for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
    if (it->first == key) {
      out_vid = it->second;
      break;
    }
  }
  ORBIT2_REQUIRE(out_vid != kNoValue,
                 "capture output does not resolve to a recorded value");
  graph_.output = out_vid;
  return std::move(graph_);
}

namespace {

void record_op(CaptureSink& sink, GraphOp op,
               const std::vector<const Tensor*>& inputs,
               const std::vector<Shape>& workspaces, const Tensor& out) {
  for (const Tensor* in : inputs) op.inputs.push_back(sink.value_for(*in));
  for (const Shape& shape : workspaces) {
    op.workspaces.push_back(sink.add_workspace(shape));
  }
  op.output = sink.bind_output(out);
  sink.record(std::move(op));
}

}  // namespace

void capture_op(const Tensor& out, OpKind kind,
                const std::vector<const Tensor*>& inputs,
                const std::vector<std::int64_t>& iparams,
                const std::vector<float>& fparams,
                const std::vector<Shape>& workspaces,
                const std::vector<std::int64_t>& perm) {
  CaptureSink* sink = capture_sink();
  if (sink == nullptr) return;
  GraphOp op;
  op.kind = kind;
  op.name = op_kind_name(kind);
  op.iparams = iparams;
  op.fparams = fparams;
  op.perm = perm;
  record_op(*sink, std::move(op), inputs, workspaces, out);
}

void capture_custom(const Tensor& out, CustomReplayFn fn, const char* name,
                    const std::vector<const Tensor*>& inputs,
                    const std::vector<std::int64_t>& iparams,
                    const std::vector<float>& fparams,
                    const std::vector<Shape>& workspaces) {
  CaptureSink* sink = capture_sink();
  if (sink == nullptr) return;
  GraphOp op;
  op.kind = OpKind::kCustom;
  op.name = name;
  op.iparams = iparams;
  op.fparams = fparams;
  op.custom = fn;
  record_op(*sink, std::move(op), inputs, workspaces, out);
}

void capture_elementwise(const Tensor& out, const Tensor& in0,
                         const Tensor* aux, EwStage stage) {
  CaptureSink* sink = capture_sink();
  if (sink == nullptr) return;
  GraphOp op;
  op.kind = OpKind::kElementwise;
  op.name = ew_kind_name(stage.kind);
  op.inputs.push_back(sink->value_for(in0));
  if (aux != nullptr) {
    stage.aux = sink->value_for(*aux);
    op.inputs.push_back(stage.aux);
  }
  op.stages.push_back(stage);
  op.output = sink->bind_output(out);
  sink->record(std::move(op));
}

}  // namespace orbit2::graph
