#pragma once
// Tape-based reverse-mode automatic differentiation.
//
// A `Var` is a shared handle to a graph node holding a value tensor, an
// accumulated gradient, and a backprop closure that routes the node's
// gradient to its parents. `backward(root)` topologically sorts the graph
// reachable from the root and runs closures in reverse order.
//
// Leaf nodes either wrap a `Parameter` (gradients flush into the parameter's
// grad buffer so the optimizer can see them) or are constants.
//
// Every interior node carries the name graph capture records its op under
// (graph/ir.hpp op_kind_name, ew_kind_name, or a custom op's name) and the
// FLOPs of its backward, so a traced backward() shows one span per node.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace orbit2::autograd {

/// A trainable tensor with its gradient accumulator. Modules own parameters;
/// the optimizer updates `value` from `grad`.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)),
        value(std::move(initial)),
        grad(Tensor::zeros(value.shape())) {}

  std::int64_t numel() const { return value.numel(); }
  void zero_grad() { grad.fill(0.0f); }
};

using ParamPtr = std::shared_ptr<Parameter>;

class Node;
using NodePtr = std::shared_ptr<Node>;

/// One autograd graph node.
class Node {
 public:
  Tensor value;
  /// Accumulated upstream gradient; allocated lazily on first accumulation.
  Tensor grad;
  bool has_grad = false;
  bool needs_grad = false;
  std::vector<NodePtr> parents;
  /// Propagates `grad` to parents (via Var::accumulate_grad). Empty for
  /// leaves.
  std::function<void(const Tensor& upstream)> backprop;
  /// Op name (a string literal; null for leaves) and the FLOPs of
  /// `backprop`'s gemm-like kernels (0 where it only moves or scales data),
  /// carried by the node's backward span.
  const char* name = nullptr;
  std::int64_t flops = 0;
  /// Non-null when the node is a parameter leaf.
  ParamPtr param;

  void accumulate(const Tensor& upstream);
};

/// Value-semantic handle to a node; the public face of the tape.
class Var {
 public:
  Var() = default;
  explicit Var(NodePtr node) : node_(std::move(node)) {}

  /// Constant leaf (no gradient tracking).
  static Var constant(Tensor value);
  /// Parameter leaf; gradients accumulate into `param->grad`.
  static Var parameter(ParamPtr param);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node()->value; }
  const Shape& shape() const { return value().shape(); }
  bool needs_grad() const { return node()->needs_grad; }
  NodePtr node() const {
    ORBIT2_REQUIRE(node_ != nullptr, "use of undefined Var");
    return node_;
  }

  /// Gradient accumulated at this node during the last backward() that
  /// reached it. Zero tensor if none did.
  Tensor grad() const;

 private:
  NodePtr node_;
};

/// Creates an interior node named `name` computing `value` from `parents`.
/// `name` must be a non-empty string literal: the name graph capture records
/// the same op under. `backprop` receives the node's accumulated gradient
/// and must push contributions into the parents (helper: accumulate_into);
/// `flops` counts its gemm-like arithmetic for the backward ledger.
Var make_op(const char* name, Tensor value, std::vector<Var> parents,
            std::function<void(const Tensor&)> backprop,
            std::int64_t flops = 0);

// ---- Inference mode ----------------------------------------------------

/// True while an InferenceModeScope is active on this thread: make_op skips
/// parent links and backprop closures, so forwards build no tape and free
/// intermediates eagerly. backward() through such nodes is a REQUIRE error.
bool inference_mode_enabled();

/// RAII switch into inference (no-tape) mode for the current thread. Nests.
class InferenceModeScope {
 public:
  InferenceModeScope();
  ~InferenceModeScope();
  InferenceModeScope(const InferenceModeScope&) = delete;
  InferenceModeScope& operator=(const InferenceModeScope&) = delete;
};

/// Process-wide count of tape nodes created so far (nodes that retained a
/// backprop closure). Regression hook: predict paths must not move it.
std::int64_t tape_node_count();

/// Adds `contribution` into the gradient accumulator of `target`'s node if
/// it participates in differentiation.
void accumulate_into(const Var& target, const Tensor& contribution);

/// Runs reverse-mode accumulation from `root`, seeding with `seed` (defaults
/// to ones — appropriate for scalar losses). Clears intermediate closures as
/// it goes so captured tensors free eagerly. Each backprop runs inside one
/// obs span named after its node, category "autograd", argument "flops".
void backward(const Var& root, const Tensor* seed = nullptr);

}  // namespace orbit2::autograd
