#include "autograd/variable.hpp"

#include <atomic>
#include <unordered_set>

#include "core/obs.hpp"

namespace orbit2::autograd {

namespace {
// Inference mode is a per-thread switch (tile replicas may serve while
// another thread trains); the tape-node counter is process-wide so tests
// can assert "this predict created zero tape nodes" regardless of thread.
thread_local int tl_inference_depth = 0;
std::atomic<std::int64_t> g_tape_nodes{0};
}  // namespace

bool inference_mode_enabled() { return tl_inference_depth > 0; }

InferenceModeScope::InferenceModeScope() { ++tl_inference_depth; }

InferenceModeScope::~InferenceModeScope() { --tl_inference_depth; }

std::int64_t tape_node_count() {
  return g_tape_nodes.load(std::memory_order_relaxed);
}

void Node::accumulate(const Tensor& upstream) {
  ORBIT2_REQUIRE(upstream.shape() == value.shape(),
                 "gradient shape " << upstream.shape().to_string()
                                   << " vs value " << value.shape().to_string());
  if (!has_grad) {
    grad = upstream.clone();
    has_grad = true;
  } else {
    grad.add_inplace(upstream);
  }
}

Var Var::constant(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->needs_grad = false;
  return Var(std::move(node));
}

Var Var::parameter(ParamPtr param) {
  ORBIT2_REQUIRE(param != nullptr, "null parameter");
  auto node = std::make_shared<Node>();
  node->value = param->value;  // shares storage: optimizer updates show up
  node->needs_grad = true;
  node->param = std::move(param);
  return Var(std::move(node));
}

Tensor Var::grad() const {
  const NodePtr n = node();
  if (!n->has_grad) return Tensor::zeros(n->value.shape());
  return n->grad;
}

Var make_op(const char* name, Tensor value, std::vector<Var> parents,
            std::function<void(const Tensor&)> backprop, std::int64_t flops) {
  ORBIT2_REQUIRE(name != nullptr && name[0] != '\0',
                 "make_op needs an op name");
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->name = name;
  node->flops = flops;
  if (inference_mode_enabled()) {
    // No-tape forward: no parent links (intermediates free as soon as the
    // last Var handle drops) and no backprop closure.
    node->needs_grad = false;
    return Var(std::move(node));
  }
  bool any_grad = false;
  node->parents.reserve(parents.size());
  for (const Var& p : parents) {
    node->parents.push_back(p.node());
    any_grad = any_grad || p.needs_grad();
  }
  node->needs_grad = any_grad;
  if (any_grad) {
    node->backprop = std::move(backprop);
    g_tape_nodes.fetch_add(1, std::memory_order_relaxed);
  }
  return Var(std::move(node));
}

void accumulate_into(const Var& target, const Tensor& contribution) {
  const NodePtr n = target.node();
  if (!n->needs_grad) return;
  n->accumulate(contribution);
}

void backward(const Var& root, const Tensor* seed) {
  ORBIT2_OBS_SPAN("autograd_backward", "autograd");
  const NodePtr root_node = root.node();
  ORBIT2_REQUIRE(root_node->needs_grad,
                 "backward() on a graph with no trainable inputs");

  // Iterative post-order DFS producing a topological order.
  std::vector<NodePtr> topo;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<NodePtr, std::size_t>> stack;
  stack.emplace_back(root_node, 0);
  visited.insert(root_node.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      NodePtr child = node->parents[next_child++];
      if (child->needs_grad && visited.insert(child.get()).second) {
        stack.emplace_back(std::move(child), 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }

  // Seed the root.
  if (seed) {
    root_node->accumulate(*seed);
  } else {
    root_node->accumulate(Tensor::ones(root_node->value.shape()));
  }

  // Reverse topological order: every node's grad is complete before its
  // backprop fires.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node& node = **it;
    if (!node.has_grad) continue;  // unreachable from the seed
    if (node.param) {
      node.param->grad.add_inplace(node.grad);
    }
    if (node.backprop) {
      ORBIT2_OBS_SPAN_ARG(node.name, "autograd", "flops", node.flops);
      node.backprop(node.grad);
      node.backprop = nullptr;  // free captured activations eagerly
    }
  }
}

}  // namespace orbit2::autograd
