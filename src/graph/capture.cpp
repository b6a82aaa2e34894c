#include "graph/ir.hpp"

#include "core/error.hpp"

namespace orbit2::graph {

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

}  // namespace orbit2::graph
