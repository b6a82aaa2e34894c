#pragma once
// Inference-graph IR: flat op list with explicit tensor value IDs.
//
// A CaptureSink records the op sequence a model's eager forward executes —
// each autograd op (and each model-level raw-tensor step) appends one
// GraphOp whose operands are ValueIds resolved from the live tensors it
// touched. The capture is a straight-line trace: value IDs are assigned in
// execution order, so the captured graph is a pure function of
// (model config, input shape) as long as the eager forward itself is.
// Data-dependent structure travels as an ordinary value (Reslim's quad-tree
// partition is one), and an op with no replay rule throws under capture.
//
// Downstream, plan.hpp fuses elementwise chains and assigns arena slots via
// liveness analysis, and executor.hpp replays the plan with zero
// steady-state allocations (see docs/API.md "Inference graph and memory
// planner").

#include <cstdint>
#include <utility>
#include <vector>

#include "core/shape.hpp"
#include "tensor/tensor.hpp"

namespace orbit2::graph {

using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

enum class OpKind : std::uint8_t {
  kElementwise,     // fused chain of EwStages applied per element to input 0
  kMatmul,          // out = inputs[0] · inputs[1] (row-major NN gemm)
  kLayerNorm,       // inputs {x, gamma, beta}, fparams {epsilon}
  kSliceRows,       // iparams {start, len}
  kConcatRows,      // inputs {a, b} stacked along rows
  kPermuteRows,     // out row r = in row perm[r]
  kConv2d,          // inputs {x, w, b}, iparams {kh, kw, stride, pad}
  kResizeBilinear,  // target size given by the output value's shape
  kImageToTokens,   // iparams {patch}
  kTokensToImage,   // iparams {channels, h, w, patch}
  kMhsa,            // multi-head self-attention composite (see executor);
                    // an optional tenth input's element 0 is the live row
                    // count (a quad-tree partition value)
  kView,            // out aliases inputs[0] with a different shape
  kCustom,          // replayed by the captured function pointer
};

/// One per-element transform inside a fused kElementwise chain. `cur` is
/// the running value for flat index i (seeded from input 0).
enum class EwKind : std::uint8_t {
  kAddCA,    // cur + aux[i]
  kAddAC,    // aux[i] + cur
  kSubCA,    // cur - aux[i]
  kSubAC,    // aux[i] - cur
  kMulCA,    // cur * aux[i]
  kMulAC,    // aux[i] * cur
  kScale,    // cur * scalar
  kGelu,     // gelu(cur): simd::Ops gelu_f32
  kAddBiasRows,  // cur + aux[i % a]                   (a = feature dim D)
  kAddTableRow,  // cur + aux[b*a + i % a]             (b = row index)
  kAddVarEmb,    // cur + aux[(i / a / b)*a + i % a]   (a = D, b = P)
};

/// The name capture records an op of `kind` under ("matmul", "conv2d", ...;
/// kCustom ops carry their own). The autograd tape names its nodes with the
/// same strings, so a node's backward span names the op capture records.
const char* op_kind_name(OpKind kind);

/// The name of a single-stage elementwise op ("add", "gelu", ...): the
/// CA/AC operand orders of one operation share a name.
const char* ew_kind_name(EwKind kind);

struct EwStage {
  EwKind kind;
  ValueId aux = kNoValue;
  float scalar = 0.0f;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class Executor;
struct GraphOp;

/// Replays one captured custom op against the executor's value table.
/// Must be a stateless function pointer so plans stay pure data.
using CustomReplayFn = void (*)(const GraphOp&, Executor&);

struct GraphOp {
  OpKind kind = OpKind::kCustom;
  /// The op's name as captured (see op_kind_name); a fused elementwise
  /// chain keeps its first op's.
  const char* name = nullptr;
  std::vector<ValueId> inputs;
  ValueId output = kNoValue;
  /// Scratch values live only while this op runs (e.g. attention score
  /// tiles); the planner recycles their slots immediately.
  std::vector<ValueId> workspaces;
  std::vector<EwStage> stages;          // kElementwise only
  std::vector<std::int64_t> iparams;
  std::vector<float> fparams;
  std::vector<std::int64_t> perm;       // kPermuteRows only
  CustomReplayFn custom = nullptr;      // kCustom only
};

struct ValueInfo {
  Shape shape;
  bool is_leaf = false;       // captured constant/parameter, not planned
  bool is_workspace = false;  // per-op scratch
  ValueId view_of = kNoValue; // alias of another value (kView output)
  Tensor leaf;                // storage for leaves (shared, not copied)
};

/// The raw straight-line trace produced by a CaptureSink.
struct CapturedGraph {
  std::vector<ValueInfo> values;
  std::vector<GraphOp> ops;
  ValueId input = kNoValue;
  ValueId output = kNoValue;
};

/// Records the eager forward. Install with CaptureScope; autograd ops and
/// model-level raw steps call capture_sink() and append ops when non-null.
class CaptureSink {
 public:
  /// `input` is the runtime input: it is bound to the first value ID and
  /// re-bound to the caller's tensor on every replay.
  explicit CaptureSink(const Tensor& input);

  /// Resolves a live tensor to its value ID: the most recent binding of its
  /// storage address, else a fresh captured leaf (constant/parameter). The
  /// sink keeps every bound tensor alive, so a reused heap address can
  /// never misidentify a fresh tensor as a stale temporary.
  ValueId value_for(const Tensor& t);

  /// Binds `t` as the output of the op being recorded (fresh temporary).
  ValueId bind_output(const Tensor& t);

  /// Declares a per-op scratch value of the given shape (no tensor yet).
  ValueId add_workspace(const Shape& shape);

  /// Appends one op. Call after bind_output/add_workspace.
  void record(GraphOp op);

  /// Records `out` as a reshaped alias of `src` (shared storage).
  void record_view(const Tensor& out, const Tensor& src);

  /// Finalizes the trace; `output` must resolve to a recorded value.
  CapturedGraph take(const Tensor& output);

 private:
  CapturedGraph graph_;
  // Storage address -> value ID, searched newest-first. A flat vector scan
  // (not a pointer-keyed hash map) keeps iteration order deterministic and
  // address-independent, which the orbit2_analyze determinism rules require.
  std::vector<std::pair<const float*, ValueId>> bindings_;
  std::vector<Tensor> keep_alive_;

  ValueId bind_tensor(const Tensor& t, bool is_leaf);
};

/// The active sink for this thread, or nullptr when not capturing.
CaptureSink* capture_sink();

// ---- Capture helpers ----------------------------------------------------
// Every captured op records itself through these after computing its value
// eagerly; each costs one thread-local read when capture is off. Value IDs
// are assigned inputs first, then workspaces, then the output.

/// Records one op of `kind` reading `inputs` and writing `out`, with one
/// per-op scratch value declared per shape in `workspaces`.
void capture_op(const Tensor& out, OpKind kind,
                const std::vector<const Tensor*>& inputs,
                const std::vector<std::int64_t>& iparams = {},
                const std::vector<float>& fparams = {},
                const std::vector<Shape>& workspaces = {},
                const std::vector<std::int64_t>& perm = {});

/// Records one kCustom op named `name` (a string literal) replayed by `fn`;
/// other arguments as for capture_op.
void capture_custom(const Tensor& out, CustomReplayFn fn, const char* name,
                    const std::vector<const Tensor*>& inputs,
                    const std::vector<std::int64_t>& iparams = {},
                    const std::vector<float>& fparams = {},
                    const std::vector<Shape>& workspaces = {});

/// Records a single-stage kElementwise op on `in0`; a binary stage's aux
/// operand resolves from `aux` when non-null.
void capture_elementwise(const Tensor& out, const Tensor& in0,
                         const Tensor* aux, EwStage stage);

/// RAII installer for the thread-local capture sink.
class CaptureScope {
 public:
  explicit CaptureScope(CaptureSink& sink);
  ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

 private:
  CaptureSink* previous_;
};

}  // namespace orbit2::graph
