// Zero-allocation replay contract: with single-threaded kernels and tracing
// disabled, a warmed-up Executor::run performs ZERO heap allocations — the
// arena owns every temporary and the kernels' scratch is thread-local and
// grow-only. Lives in its own binary because ORBIT2_INSTALL_ALLOC_COUNTER
// replaces the global allocator for the whole process.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "autograd/variable.hpp"
#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/plan.hpp"
#include "model/reslim.hpp"
#include "model/vit_baseline.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::graph {
namespace {

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.017f * static_cast<float>(i));
  }
  return input;
}

template <typename Model>
std::shared_ptr<const Plan> compile(const Model& m, const Tensor& input) {
  autograd::InferenceModeScope no_tape;
  CaptureSink sink(input);
  Tensor out;
  {
    CaptureScope scope(sink);
    out = m.forward(input).value();
  }
  return std::make_shared<const Plan>(compile_plan(sink.take(out)));
}

template <typename Model>
void expect_zero_alloc_replay(const Model& m, const Tensor& input) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  kernels::set_max_threads(1);
  Executor executor(compile(m, input));
  // Warm up twice: the first run grows the kernels' thread-local scratch
  // (gemm pack buffers, flash rows, resize taps) to this plan's high-water
  // mark; afterwards the replay path must touch the heap zero times.
  executor.run(input);
  executor.run(input);
  std::int64_t delta = -1;
  {
    debug::AllocCountScope scope;
    executor.run(input);
    delta = scope.delta();
  }
  kernels::set_max_threads(0);
  EXPECT_EQ(delta, 0) << "steady-state replay allocated";
}

TEST(GraphAlloc, ReslimReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(1);
  model::ReslimModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

TEST(GraphAlloc, ReslimWindowedReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  config.attention_window = 2;
  Rng rng(2);
  model::ReslimModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

TEST(GraphAlloc, ViTReplayIsAllocationFree) {
  model::ModelConfig config = model::preset_tiny();
  config.architecture = model::Architecture::kViTBaseline;
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(3);
  model::ViTBaselineModel model(config, rng);
  expect_zero_alloc_replay(model, make_input(3, 12, 20));
}

/// Replaces the partition step (Canny + quad-tree search): writes a single
/// leaf covering the [gh, gw] token grid, allocating nothing.
void single_leaf_partition(const GraphOp& op, Executor& ex) {
  float* value = ex.mutable_value(op.output).data().data();
  value[0] = 1.0f;
  value[1] = 0.0f;
  value[2] = 0.0f;
  value[3] = static_cast<float>(op.iparams[0]);
  value[4] = static_cast<float>(op.iparams[1]);
}

std::int64_t steady_replay_allocs(std::shared_ptr<const Plan> plan,
                                  const Tensor& input) {
  Executor executor(std::move(plan));
  executor.run(input);
  executor.run(input);
  debug::AllocCountScope scope;
  executor.run(input);
  return scope.delta();
}

TEST(GraphAlloc, CompressedReplayAllocatesOnlyInPartition) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  config.compression_ratio = 2.0f;
  Rng rng(5);
  model::ReslimModel model(config, rng);
  const Tensor input = make_input(3, 16, 16);

  kernels::set_max_threads(1);
  const std::shared_ptr<const Plan> plan = compile(model, input);
  const std::int64_t with_partition = steady_replay_allocs(plan, input);

  // The partition op is the kCustom op writing the rank-1 partition value.
  Plan stubbed = *plan;
  int partition_ops = 0;
  const std::vector<ValueInfo>& values = stubbed.graph.values;
  for (GraphOp& op : stubbed.graph.ops) {
    const auto out = static_cast<std::size_t>(op.output);
    if (op.kind == OpKind::kCustom && values[out].shape.rank() == 1) {
      op.custom = &single_leaf_partition;
      ++partition_ops;
    }
  }
  const std::int64_t without_partition = steady_replay_allocs(
      std::make_shared<const Plan>(std::move(stubbed)), input);
  kernels::set_max_threads(0);

  EXPECT_EQ(partition_ops, 1);
  EXPECT_GT(with_partition, 0) << "Canny and the quad-tree search allocate";
  EXPECT_EQ(without_partition, 0)
      << "compressed replay allocated outside the partition step";
  RecordProperty("partition_allocs_per_replay",
                 static_cast<int>(with_partition));
}

TEST(GraphAlloc, EagerForwardAllocatesButReplayDoesNot) {
  // Sanity check on the measurement itself: the eager forward allocates
  // (fresh tensor per op), so a zero reading for replay is meaningful.
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(4);
  model::ReslimModel model(config, rng);
  const Tensor input = make_input(3, 12, 20);

  kernels::set_max_threads(1);
  autograd::InferenceModeScope no_tape;
  (void)model.forward(input).value();  // warm scratch
  std::int64_t eager_delta = 0;
  {
    debug::AllocCountScope scope;
    (void)model.forward(input).value();
    eager_delta = scope.delta();
  }
  kernels::set_max_threads(0);
  EXPECT_GT(eager_delta, 0);
}

}  // namespace
}  // namespace orbit2::graph
