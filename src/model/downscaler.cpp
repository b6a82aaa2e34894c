#include "model/downscaler.hpp"

namespace orbit2::model {

Tensor Downscaler::predict_field(const Tensor& input) const {
  return compiled_for(input)->run(input);
}

std::shared_ptr<const graph::CompiledShape> Downscaler::compiled_for(
    const Tensor& input) const {
  autograd::InferenceModeScope no_tape;
  return plan_cache_.get_or_compile(
      input,
      [this, &input](graph::CaptureSink&) { return downscale(input).value(); });
}

}  // namespace orbit2::model
