#include "graph/compiled.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace orbit2::graph {

namespace {

/// Copies an executor's output into a caller buffer, reusing its storage
/// when the shape already matches (zero-allocation steady state).
void copy_result(const Tensor& result, Tensor& out) {
  if (out.shape() == result.shape() && !out.shares_storage_with(result)) {
    std::copy(result.data().begin(), result.data().end(), out.data().begin());
  } else {
    out = result.clone();
  }
}

}  // namespace

CompiledShape::CompiledShape(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)),
      pool_(std::make_unique<core::ObjectPool<Executor>>()) {
  ORBIT2_REQUIRE(plan_ != nullptr, "CompiledShape needs a plan");
}

Tensor CompiledShape::run(const Tensor& input) const {
  Tensor result;
  run_into(input, result);
  return result;
}

void CompiledShape::run_into(const Tensor& input, Tensor& out) const {
  std::unique_ptr<Executor> executor = pool_->try_acquire();
  if (executor == nullptr) executor = std::make_unique<Executor>(plan_);
  copy_result(executor->run(input), out);
  pool_->release(std::move(executor));
}

void CompiledShape::warm(std::size_t count) const {
  while (pool_->size() < count) {
    pool_->release(std::make_unique<Executor>(plan_));
  }
}

std::shared_ptr<const CompiledShape> PlanCache::get_or_compile(
    const Tensor& input, const CaptureForwardFn& run_forward) {
  return cache_.get_or_create(ShapeKey{input.shape()}, [&]() {
    CaptureSink sink(input);
    Tensor output;
    {
      CaptureScope scope(sink);
      output = run_forward(sink);
    }
    return CompiledShape(
        std::make_shared<const Plan>(compile_plan(sink.take(output))));
  });
}

}  // namespace orbit2::graph
