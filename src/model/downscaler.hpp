#pragma once
// Common interface for downscaling models, so the trainer, TILES executor,
// serving layer and benchmarks treat Reslim and the ViT baseline uniformly.
//
// Inference has one path: predict_field replays the compiled plan of the
// input's shape, compiled on first use from the model's own eager forward.
// Every model config compiles — Reslim's adaptive compression included, its
// quad-tree partition being a runtime value of the plan. A shape whose
// capture throws (an input the forward rejects) throws from compiled_for
// and predict_field alike.

#include <memory>

#include "autograd/nn.hpp"
#include "graph/compiled.hpp"
#include "model/config.hpp"

namespace orbit2::model {

class Downscaler : public autograd::Module {
 public:
  /// [Cin, h, w] -> differentiable prediction [Cout, h*up, w*up].
  virtual autograd::Var downscale(const Tensor& input) const = 0;
  virtual const ModelConfig& model_config() const = 0;

  /// Inference: replays this input shape's compiled plan, bitwise identical
  /// to downscale(input).value(). No tape is built.
  Tensor predict_field(const Tensor& input) const;

  /// The cached compiled plan for this input shape, compiling on first use.
  /// Never null; throws when the forward cannot run on `input`.
  std::shared_ptr<const graph::CompiledShape> compiled_for(
      const Tensor& input) const;

 private:
  /// Per-input-shape plans. Mutable: caching does not change the model.
  mutable graph::PlanCache plan_cache_;
};

}  // namespace orbit2::model
