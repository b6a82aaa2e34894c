// Integration tests for observability in the training loop: a short
// 2x2-tile Trainer run must produce the expected phase spans
// (data/forward/backward/optimizer/checkpoint), and after a kill -> resume
// the resumed trace's first optimizer span must carry the restored global
// step — proving traces stitch correctly across restarts.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/obs.hpp"
#include "model/reslim.hpp"
#include "train/trainer.hpp"

namespace orbit2::train {
namespace {

struct SimulatedKill : std::runtime_error {
  SimulatedKill() : std::runtime_error("simulated kill") {}
};

data::DatasetConfig obs_dataset_config() {
  data::DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  config.seed = 33;
  config.fixed_region = true;
  config.input_variables.resize(5);
  config.output_variables.resize(2);
  return config;
}

model::ModelConfig obs_model_config() {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  return config;
}

Trainer make_trainer(const std::string& checkpoint_dir) {
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 2;
  config.lr = 2e-3f;
  config.shuffle = false;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every_steps = 1;
  TileSpec tiles;
  tiles.rows = 2;
  tiles.cols = 2;
  tiles.halo = 2;
  const model::ModelConfig mconfig = obs_model_config();
  return Trainer(
      [mconfig] {
        Rng rng(4);
        return std::make_unique<model::ReslimModel>(mconfig, rng);
      },
      tiles, config);
}

std::int64_t count_spans(const std::vector<obs::SpanRecord>& spans,
                         const std::string& name) {
  std::int64_t n = 0;
  for (const auto& s : spans) {
    if (s.name == name) ++n;
  }
  return n;
}

std::vector<std::int64_t> optimizer_step_args(
    const std::vector<obs::SpanRecord>& spans) {
  // snapshot_spans sorts per-tid, and every optimizer span is recorded by
  // the driving thread, so these come back in execution order.
  std::vector<std::int64_t> steps;
  for (const auto& s : spans) {
    if (s.name == "train/optimizer") {
      EXPECT_EQ(s.arg_name, "global_step");
      steps.push_back(s.arg_value);
    }
  }
  return steps;
}

struct ObsTrainerTest : ::testing::Test {
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
    obs::set_enabled(true);
    if (!obs::enabled()) GTEST_SKIP() << "built with ORBIT2_OBS=OFF";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(ObsTrainerTest, TwoStepRunProducesPhaseSpans) {
  const data::SyntheticDataset dataset(obs_dataset_config());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_obs_trainer").string();
  std::filesystem::remove_all(dir);

  Trainer trainer = make_trainer(dir);
  // 4 samples / batch 2 -> exactly 2 optimizer steps in the single epoch.
  trainer.fit(dataset, {0, 1, 2, 3});
  obs::set_enabled(false);

  const auto spans = obs::snapshot_spans();
  const std::int64_t tiles = 4;
  EXPECT_EQ(count_spans(spans, "train/epoch"), 1);
  EXPECT_EQ(count_spans(spans, "train/data"), 4);
  EXPECT_EQ(count_spans(spans, "train/forward"), 4 * tiles);
  EXPECT_EQ(count_spans(spans, "train/backward"), 4 * tiles);
  EXPECT_EQ(count_spans(spans, "train/optimizer"), 2);
  // Two per-step saves plus the end-of-epoch rotation; the manager may
  // additionally write best.o2ck on improvement, so save spans are >=.
  EXPECT_EQ(count_spans(spans, "train/checkpoint"), 3);
  EXPECT_GE(count_spans(spans, "checkpoint/save"), 3);
  EXPECT_EQ(optimizer_step_args(spans), (std::vector<std::int64_t>{0, 1}));

  // Phase work rides the instrumented kernel layer underneath.
  EXPECT_GT(count_spans(spans, "gemm"), 0);
  EXPECT_GT(count_spans(spans, "autograd_backward"), 0);

  // Checkpoint byte accounting matches the files actually written.
  bool found_bytes = false;
  for (const auto& [name, value] : obs::counters()) {
    if (name == "checkpoint.bytes_written") {
      found_bytes = true;
      EXPECT_GT(value, 0);
    }
  }
  EXPECT_TRUE(found_bytes);

  std::filesystem::remove_all(dir);
}

TEST_F(ObsTrainerTest, ResumedTraceStartsAtRestoredGlobalStep) {
  const data::SyntheticDataset dataset(obs_dataset_config());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_obs_resume").string();
  std::filesystem::remove_all(dir);
  const std::vector<std::int64_t> indices = {0, 1, 2, 3, 4, 5};

  // Killed run: the hook throws after the first optimizer step completes
  // (its checkpoint is already on disk).
  const std::int64_t kill_at = 1;
  {
    Trainer trainer = make_trainer(dir);
    trainer.set_step_hook([&](std::int64_t step, double) {
      if (step >= kill_at) throw SimulatedKill();
    });
    EXPECT_THROW(trainer.fit(dataset, indices), SimulatedKill);
  }
  const auto killed_steps = optimizer_step_args(obs::snapshot_spans());
  ASSERT_EQ(killed_steps, (std::vector<std::int64_t>{0}));

  // Resume with a fresh trainer and a fresh trace: the restored run's first
  // optimizer span starts at the restored global step, not at 0.
  obs::set_enabled(false);
  obs::reset();
  obs::set_enabled(true);

  Trainer resumed = make_trainer(dir);
  resumed.load_state(
      (std::filesystem::path(dir) / "latest.o2ck").string());
  EXPECT_EQ(resumed.global_step(), kill_at);
  resumed.fit(dataset, indices);
  obs::set_enabled(false);

  const auto spans = obs::snapshot_spans();
  const auto steps = optimizer_step_args(spans);
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), kill_at);
  // 6 samples / batch 2 = 3 steps/epoch; steps kill_at..2 remain.
  EXPECT_EQ(steps, (std::vector<std::int64_t>{1, 2}));
  // The resumed run starts by loading the checkpoint.
  EXPECT_GE(count_spans(spans, "checkpoint/load"), 1);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace orbit2::train
