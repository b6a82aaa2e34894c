// Compiled inference graph tests: capture/fusion/planning invariants,
// eager-vs-compiled bitwise equivalence for Reslim (adaptive compression
// included: one plan per shape across differing quad-tree partitions) and
// the ViT baseline across thread counts and non-power-of-two grids,
// tape-free predict, plan determinism, throw-on-no-replay-rule capture, obs
// counters, and a kill->resume check that checkpointing is unaffected by
// plan caching.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/rng.hpp"
#include "graph/compiled.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/plan.hpp"
#include "model/reslim.hpp"
#include "quadtree/quadtree.hpp"
#include "model/vit_baseline.hpp"
#include "train/trainer.hpp"

namespace orbit2::graph {
namespace {

model::ModelConfig graph_reslim_config() {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  return config;
}

model::ModelConfig graph_vit_config() {
  model::ModelConfig config = graph_reslim_config();
  config.architecture = model::Architecture::kViTBaseline;
  return config;
}

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w,
                  float phase) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.013f * static_cast<float>(i) + phase);
  }
  return input;
}

/// Captures `forward` on `input` and compiles; asserts the capture held.
template <typename Model>
Plan capture_plan(const Model& m, const Tensor& input) {
  autograd::InferenceModeScope no_tape;
  CaptureSink sink(input);
  Tensor out;
  {
    CaptureScope scope(sink);
    out = m.forward(input).value();
  }
  return compile_plan(sink.take(out));
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << ": compiled replay diverged from eager";
}

// ---- tape-free predict -----------------------------------------------------

TEST(InferenceMode, PredictBuildsNoTapeNodes) {
  Rng rng(1);
  model::ReslimModel model(graph_reslim_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.1f);

  const std::int64_t before = autograd::tape_node_count();
  (void)model.predict_field(input);
  (void)model.predict_field(input);
  EXPECT_EQ(autograd::tape_node_count(), before)
      << "predict retained tape nodes";

  // The differentiable path still records.
  (void)model.forward(input);
  EXPECT_GT(autograd::tape_node_count(), before);
}

TEST(InferenceMode, ViTPredictBuildsNoTapeNodes) {
  Rng rng(2);
  model::ViTBaselineModel model(graph_vit_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.2f);

  const std::int64_t before = autograd::tape_node_count();
  (void)model.predict_field(input);
  EXPECT_EQ(autograd::tape_node_count(), before);
  (void)model.forward(input);
  EXPECT_GT(autograd::tape_node_count(), before);
}

// ---- capture / plan invariants --------------------------------------------

TEST(Planner, FusionShrinksOpListAndArenaAliasesBuffers) {
  Rng rng(3);
  model::ReslimModel model(graph_reslim_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.3f);
  const Plan plan = capture_plan(model, input);

  EXPECT_GT(plan.raw_op_count, 0);
  EXPECT_LT(plan.num_ops(), plan.raw_op_count)
      << "elementwise fusion eliminated no ops";
  EXPECT_LT(plan.arena_floats(), plan.unaliased_floats())
      << "liveness-based aliasing saved no memory";
}

TEST(Planner, PlanIsPureFunctionOfConfigAndShape) {
  Rng rng(4);
  model::ReslimModel model(graph_reslim_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.4f);
  const Plan first = capture_plan(model, input);
  const Plan second = capture_plan(model, input);
  EXPECT_EQ(first.signature(), second.signature());

  Rng vit_rng(5);
  model::ViTBaselineModel vit(graph_vit_config(), vit_rng);
  const Plan vit_first = capture_plan(vit, input);
  const Plan vit_second = capture_plan(vit, input);
  EXPECT_EQ(vit_first.signature(), vit_second.signature());
}

/// Inputs of one shape whose quad-tree partitions differ: a constant field
/// (no edges, so a single leaf) first, then seeded uniform noise.
std::vector<Tensor> partition_probe_inputs(std::int64_t c, std::int64_t h,
                                           std::int64_t w) {
  std::vector<Tensor> inputs = {Tensor::zeros(Shape{c, h, w})};
  for (std::uint64_t seed = 1; seed <= 31; ++seed) {
    Rng rng(seed);
    inputs.push_back(Tensor::uniform(Shape{c, h, w}, rng, -1.0f, 1.0f));
  }
  return inputs;
}

/// Live leaf count L of `input`'s partition, from the eager forward.
std::int64_t leaf_count(const model::ReslimModel& m, const Tensor& input) {
  autograd::InferenceModeScope no_tape;
  model::ForwardStats stats;
  (void)m.forward(input, &stats);
  return stats.tokens_after_compression;
}

TEST(Planner, CompressionConfigCompilesOnePlanPerShape) {
  model::ModelConfig config = graph_reslim_config();
  config.compression_ratio = 2.0f;
  Rng rng(6);
  model::ReslimModel model(config, rng);
  const std::vector<Tensor> inputs = partition_probe_inputs(3, 16, 16);
  const Tensor& a = inputs[0];
  const Tensor& b = inputs[1];
  ASSERT_NE(leaf_count(model, a), leaf_count(model, b))
      << "the probe inputs must partition differently";

  const auto compiled = model.compiled_for(a);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(model.compiled_for(b), compiled)
      << "a second partition of the same shape compiled a second plan";

  // The trunk is sized for the L_max bound: a partition value of
  // 1 + 4 * L_max floats, with L_max = ceil(P / ratio) = ceil(64 / 2).
  const std::int64_t max_leaves = max_leaves_for_ratio(64, 2.0f);
  EXPECT_EQ(max_leaves, 32);
  bool has_partition_value = false;
  for (const ValueInfo& info : compiled->plan()->graph.values) {
    has_partition_value = has_partition_value ||
                          info.shape == Shape{partition_value_size(max_leaves)};
  }
  EXPECT_TRUE(has_partition_value);

  autograd::InferenceModeScope no_tape;
  expect_bitwise(model.predict_field(a), model.forward(a).value(), "input a");
  expect_bitwise(model.predict_field(b), model.forward(b).value(), "input b");
}

/// Captures `chain(x)` for the planned temporary x = 1.5 * input, followed by
/// a non-elementwise consumer so the chain output is an ordinary planned
/// value, not the dedicated graph output. Asserts that the fused chain, whose
/// aux operand is its own dying input 0, runs out of place and that replay
/// equals eager bit for bit.
template <typename Chain>
void expect_aux_alias_out_of_place(Chain&& chain, const char* what) {
  const Tensor input = make_input(2, 8, 8, 0.2f);
  autograd::InferenceModeScope no_tape;
  CaptureSink sink(input);
  Tensor eager;
  {
    CaptureScope scope(sink);
    const autograd::Var x =
        autograd::scale(autograd::Var::constant(input), 1.5f);
    eager = autograd::slice_rows(chain(x), 0, 2).value();
  }
  auto plan = std::make_shared<const Plan>(compile_plan(sink.take(eager)));

  const GraphOp* chain_op = nullptr;
  for (const GraphOp& op : plan->graph.ops) {
    for (const EwStage& stage : op.stages) {
      if (op.stages.size() == 2 && stage.aux == op.inputs[0]) chain_op = &op;
    }
  }
  ASSERT_NE(chain_op, nullptr) << what << "\n" << plan->signature();
  EXPECT_NE(plan->slot_of[static_cast<std::size_t>(chain_op->output)],
            plan->slot_of[static_cast<std::size_t>(chain_op->inputs[0])])
      << what;

  Executor executor(plan);
  expect_bitwise(executor.run(input), eager, what);
}

TEST(Planner, AuxReadingInputZeroRunsOutOfPlace) {
  // Stages run one after another over the output buffer, so a chain may
  // not take the slot of an input 0 that one of its stages reads as aux.
  expect_aux_alias_out_of_place(
      [](const autograd::Var& x) {
        return autograd::gelu(autograd::add(x, x));
      },
      "add(x, x) -> gelu");
  // Here the aux read follows a stage that already wrote the buffer, so an
  // in-place run would multiply by gelu(x) instead of x.
  expect_aux_alias_out_of_place(
      [](const autograd::Var& x) {
        return autograd::mul(autograd::gelu(x), x);
      },
      "gelu(x) * x");
}

TEST(Capture, OpWithoutReplayRuleThrows) {
  const Tensor input = make_input(2, 4, 4, 0.3f);
  autograd::InferenceModeScope no_tape;
  {
    CaptureSink sink(input);
    CaptureScope scope(sink);
    const autograd::Var x = autograd::Var::constant(input);
    EXPECT_THROW((void)autograd::sum(x), Error);
    EXPECT_THROW((void)autograd::mean(x), Error);
  }

  // Through a PlanCache the throw propagates and caches nothing, so the
  // next call captures (and throws) again.
  PlanCache cache;
  int captures = 0;
  const CaptureForwardFn forward = [&](CaptureSink&) {
    ++captures;
    return autograd::mean(autograd::Var::constant(input)).value();
  };
  EXPECT_THROW((void)cache.get_or_compile(input, forward), Error);
  EXPECT_THROW((void)cache.get_or_compile(input, forward), Error);
  EXPECT_EQ(captures, 2);
}

// ---- bitwise eager equivalence --------------------------------------------

void expect_compiled_matches_eager_reslim(model::ModelConfig config,
                                          std::int64_t h, std::int64_t w,
                                          const char* what) {
  Rng rng(7);
  model::ReslimModel model(config, rng);
  const Tensor input = make_input(config.in_channels, h, w, 0.6f);

  auto plan =
      std::make_shared<const Plan>(capture_plan(model, input));
  Executor executor(plan);

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    kernels::set_max_threads(threads);
    autograd::InferenceModeScope no_tape;
    const Tensor eager = model.forward(input).value();
    expect_bitwise(executor.run(input), eager, what);
    expect_bitwise(model.predict_field(input), eager, what);
  }
  kernels::set_max_threads(0);
}

TEST(Equivalence, ReslimFlashAttention) {
  expect_compiled_matches_eager_reslim(graph_reslim_config(), 12, 20,
                                       "reslim flash");
}

TEST(Equivalence, ReslimNaiveAttention) {
  model::ModelConfig config = graph_reslim_config();
  config.use_flash_attention = false;
  expect_compiled_matches_eager_reslim(config, 12, 20, "reslim naive");
}

TEST(Equivalence, ReslimWindowedAttention) {
  model::ModelConfig config = graph_reslim_config();
  config.attention_window = 2;
  expect_compiled_matches_eager_reslim(config, 12, 20, "reslim windowed");
}

TEST(Equivalence, ReslimWithoutResidualPath) {
  model::ModelConfig config = graph_reslim_config();
  config.use_residual_path = false;
  expect_compiled_matches_eager_reslim(config, 12, 20, "reslim no-residual");
}

TEST(Equivalence, ReslimNonPow2GridWithPatch4) {
  model::ModelConfig config = graph_reslim_config();
  config.patch = 4;
  expect_compiled_matches_eager_reslim(config, 24, 40, "reslim 24x40 p4");
}

TEST(Equivalence, ReslimAdaptiveCompression) {
  // One plan per shape, captured on the input A with the fewest leaves,
  // replays inputs whose partitions differ. Each other input B runs
  // B -> A -> B, so trunk rows a longer partition left behind would show in
  // A's run if any op read past A's live rows.
  struct Case {
    float ratio;
    std::int64_t h, w;
    // Whether a probe input reaches a single leaf. At ratio 2 on the 10x18
    // token grid none does: scanning 60 inputs found L from 39 to 90.
    bool single_leaf;
  };
  for (const Case c : {Case{2.0f, 16, 16, true}, Case{2.0f, 20, 36, false},
                       Case{4.0f, 16, 16, true}, Case{4.0f, 20, 36, true}}) {
    for (const bool flash : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "ratio " << c.ratio << (flash ? " flash " : " naive ")
                   << c.h << "x" << c.w);
      model::ModelConfig config = graph_reslim_config();
      config.compression_ratio = c.ratio;
      config.use_flash_attention = flash;
      Rng rng(7);
      model::ReslimModel model(config, rng);
      const std::vector<Tensor> inputs = partition_probe_inputs(3, c.h, c.w);

      // One representative input per distinct leaf count, fewest first.
      std::map<std::int64_t, std::size_t> by_leaves;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        by_leaves.emplace(leaf_count(model, inputs[i]), i);
      }
      ASSERT_GE(by_leaves.size(), 3u);
      if (c.single_leaf) {
        ASSERT_EQ(by_leaves.begin()->first, 1);
      }
      // B runs: the next two leaf counts above A's and the largest.
      std::vector<std::size_t> reps;
      for (const auto& [leaves, index] : by_leaves) reps.push_back(index);
      const std::size_t a = reps.front();
      std::vector<std::size_t> order;
      for (const std::size_t b : {reps[1], reps[2], reps.back()}) {
        if (order.empty() || b != order.back()) {
          order.insert(order.end(), {b, a, b});
        }
      }

      const auto compiled = model.compiled_for(inputs[a]);
      Executor executor(compiled->plan());
      for (std::size_t threads :
           {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
        kernels::set_max_threads(threads);
        autograd::InferenceModeScope no_tape;
        for (const std::size_t i : order) {
          const Tensor eager = model.forward(inputs[i]).value();
          expect_bitwise(executor.run(inputs[i]), eager, "executor");
          expect_bitwise(model.predict_field(inputs[i]), eager,
                         "predict_field");
        }
      }
      kernels::set_max_threads(0);
    }
  }
}

TEST(Equivalence, ViTAcrossThreadCounts) {
  Rng rng(8);
  model::ViTBaselineModel model(graph_vit_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.7f);

  auto plan = std::make_shared<const Plan>(capture_plan(model, input));
  Executor executor(plan);

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    kernels::set_max_threads(threads);
    autograd::InferenceModeScope no_tape;
    const Tensor eager = model.forward(input).value();
    expect_bitwise(executor.run(input), eager, "vit");
    expect_bitwise(model.predict_field(input), eager, "vit");
  }
  kernels::set_max_threads(0);
}

TEST(Equivalence, RepeatedReplaysAreIdentical) {
  // The pooled executor must be stateless across runs: same input, same
  // bits, every time (no stale aliased-buffer contamination).
  Rng rng(9);
  model::ReslimModel model(graph_reslim_config(), rng);
  const Tensor a = make_input(3, 12, 20, 0.8f);
  const Tensor b = make_input(3, 12, 20, 1.8f);

  const Tensor first_a = model.predict_field(a);
  const Tensor first_b = model.predict_field(b);
  expect_bitwise(model.predict_field(a), first_a, "replay a");
  expect_bitwise(model.predict_field(b), first_b, "replay b");
}

// ---- observability ---------------------------------------------------------

std::int64_t counter_value(const char* name) {
  for (const auto& [counter_name, value] : obs::counters()) {
    if (counter_name == name) return value;
  }
  return 0;
}

TEST(Observability, ReplayAndArenaCountersAdvance) {
  if (!obs::enabled()) obs::set_enabled(true);
  const std::int64_t replays_before = counter_value("graph/replay");
  const std::int64_t bytes_before = counter_value("graph/alloc_bytes");

  Rng rng(10);
  model::ReslimModel model(graph_reslim_config(), rng);
  const Tensor input = make_input(3, 12, 20, 0.9f);
  (void)model.predict_field(input);
  (void)model.predict_field(input);

  EXPECT_GE(counter_value("graph/replay"), replays_before + 2);
  EXPECT_GT(counter_value("graph/alloc_bytes"), bytes_before)
      << "executor construction should account its arena bytes";
  obs::set_enabled(false);
}

// ---- checkpoint/restore is unaffected by plan caching ----------------------

struct SimulatedKill : std::runtime_error {
  SimulatedKill() : std::runtime_error("simulated kill") {}
};

TEST(PlanCacheResume, KillResumeTrajectoryUnaffectedByServing) {
  // Interleaving compiled-plan serving with training must not perturb the
  // checkpointed trajectory: plans capture no RNG state and share parameter
  // storage without copying, so a killed+resumed run that also serves
  // predictions stays bit-identical to an uninterrupted run that never
  // serves any.
  data::DatasetConfig dataset_config;
  dataset_config.hr_h = 32;
  dataset_config.hr_w = 64;
  dataset_config.upscale = 4;
  dataset_config.seed = 21;
  dataset_config.fixed_region = true;
  dataset_config.input_variables.resize(5);
  dataset_config.output_variables.resize(2);
  const data::SyntheticDataset dataset(dataset_config);
  std::vector<std::int64_t> indices = {0, 1, 2, 3};

  model::ModelConfig model_config = model::preset_tiny();
  model_config.in_channels = 5;
  model_config.out_channels = 2;
  model_config.upscale = 4;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_graph_resume")
          .string();
  std::filesystem::remove_all(dir);
  train::TrainerConfig trainer_config;
  trainer_config.epochs = 1;
  trainer_config.batch_size = 2;
  trainer_config.checkpoint_dir = dir;
  trainer_config.checkpoint_every_steps = 1;

  const Tensor serve_input = make_input(5, 8, 16, 1.0f);
  using Trajectory = std::map<std::int64_t, double>;

  // Reference: uninterrupted, never serves.
  Trajectory reference;
  Rng ref_rng(11);
  model::ReslimModel ref_model(model_config, ref_rng);
  auto ref_config = trainer_config;
  ref_config.checkpoint_dir = dir + "_ref";
  train::Trainer ref_trainer(ref_model, ref_config);
  ref_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { reference[step] = loss; });
  ref_trainer.fit(dataset, indices);

  // Killed run: serves a compiled prediction before training and at every
  // step, then dies after step 1.
  Trajectory interrupted;
  Rng kill_rng(11);
  model::ReslimModel kill_model(model_config, kill_rng);
  train::Trainer kill_trainer(kill_model, trainer_config);
  (void)kill_model.predict_field(serve_input);
  kill_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
    (void)kill_model.predict_field(serve_input);
    if (step >= 1) throw SimulatedKill();
  });
  EXPECT_THROW(kill_trainer.fit(dataset, indices), SimulatedKill);

  // Resume with a fresh model whose plan cache is cold; serve during the
  // remaining steps too.
  Rng resume_rng(404);
  model::ReslimModel resume_model(model_config, resume_rng);
  train::Trainer resume_trainer(resume_model, trainer_config);
  resume_trainer.load_state(
      (std::filesystem::path(dir) / "latest.o2ck").string());
  resume_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
    (void)resume_model.predict_field(serve_input);
  });
  resume_trainer.fit(dataset, indices);

  ASSERT_EQ(interrupted.size(), reference.size());
  for (const auto& [step, loss] : reference) {
    EXPECT_EQ(interrupted.at(step), loss) << "loss diverged at step " << step;
  }
  const auto expect = ref_model.parameters();
  const auto got = resume_model.parameters();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (std::int64_t j = 0; j < expect[i]->numel(); ++j) {
      ASSERT_EQ(expect[i]->value[j], got[i]->value[j])
          << "param " << expect[i]->name << "[" << j << "]";
    }
  }

  // Serving after resume reflects the restored parameters: a fresh eager
  // forward and the (re-captured) compiled path agree bitwise.
  autograd::InferenceModeScope no_tape;
  expect_bitwise(resume_model.predict_field(serve_input),
                 resume_model.forward(serve_input).value(), "post-resume");
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

}  // namespace
}  // namespace orbit2::graph
