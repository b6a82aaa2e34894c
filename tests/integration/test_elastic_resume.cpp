// Elastic kill -> re-plan -> reshard -> resume integration tests.
//
// Acceptance bar (ISSUE 7): a run killed at step k on N simulated workers
// (N kernel threads) and resumed on M != N workers — with its checkpoint
// moved through the N-shard layout, resharded to M shards, and merged back,
// every hop via real files — produces bit-identical parameters, optimizer
// moments, and loss stream to an uninterrupted run at the M-worker layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "elastic/harness.hpp"
#include "elastic/reshard.hpp"
#include "model/reslim.hpp"
#include "train/trainer.hpp"

namespace orbit2::elastic {
namespace {

data::DatasetConfig elastic_dataset_config() {
  data::DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  config.seed = 21;
  config.fixed_region = true;
  config.input_variables.resize(5);
  config.output_variables.resize(2);
  return config;
}

model::ModelConfig elastic_model_config() {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  return config;
}

train::TrainerConfig elastic_trainer_config(const std::string& dir) {
  train::TrainerConfig config;
  config.epochs = 2;
  config.batch_size = 2;
  config.lr = 2e-3f;
  config.shuffle = true;  // resume must replay the interrupted order
  config.checkpoint_dir = dir;
  config.checkpoint_every_steps = 1;
  return config;
}

std::vector<std::int64_t> range_indices(std::int64_t n) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
  return out;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.numel(), b.numel()) << label;
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    ASSERT_EQ(a.data()[static_cast<std::size_t>(j)],
              b.data()[static_cast<std::size_t>(j)])
        << label << "[" << j << "]";
  }
}

void expect_same_optimizer(const autograd::AdamW& expect,
                           const autograd::AdamW& got) {
  ASSERT_EQ(expect.first_moments().size(), got.first_moments().size());
  for (std::size_t i = 0; i < expect.first_moments().size(); ++i) {
    expect_bitwise_equal(expect.first_moments()[i], got.first_moments()[i],
                         "adamw.m[" + std::to_string(i) + "]");
    expect_bitwise_equal(expect.second_moments()[i], got.second_moments()[i],
                         "adamw.v[" + std::to_string(i) + "]");
  }
}

/// Shrink (4 -> 2) and grow (2 -> 3) scenarios share this driver.
void run_trainer_scenario(std::int64_t from_workers, std::int64_t to_workers,
                          const std::string& tag) {
  const data::SyntheticDataset dataset(elastic_dataset_config());
  const auto indices = range_indices(6);
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("orbit2_elastic_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
  std::filesystem::create_directories(dir);

  // Reference: uninterrupted run at the TARGET (post-fault) worker count.
  kernels::set_max_threads(static_cast<int>(to_workers));
  std::map<std::int64_t, double> reference;
  Rng ref_rng(4);
  model::ReslimModel ref_model(elastic_model_config(), ref_rng);
  train::Trainer ref_trainer(ref_model,
                             elastic_trainer_config(dir + "_ref"));
  ref_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { reference[step] = loss; });
  ref_trainer.fit(dataset, indices);
  ASSERT_GE(reference.size(), 4u);

  ElasticScenario scenario;
  scenario.kill_at_step = 2;
  scenario.from_workers = from_workers;
  scenario.to_workers = to_workers;
  scenario.checkpoint_path =
      (std::filesystem::path(dir) / "latest.o2ck").string();
  scenario.work_prefix = (std::filesystem::path(dir) / "elastic").string();
  scenario.resume_path =
      (std::filesystem::path(dir) / "resharded.o2ck").string();

  std::unique_ptr<model::ReslimModel> resumed_model;
  std::unique_ptr<train::Trainer> resumed_trainer;
  const ElasticOutcome outcome = run_kill_reshard_resume(
      scenario,
      [&](train::StepHook hook) {
        // Same init seed as the reference: the pre-kill prefix must match.
        Rng rng(4);
        model::ReslimModel model(elastic_model_config(), rng);
        train::Trainer trainer(model, elastic_trainer_config(dir));
        trainer.set_step_hook(std::move(hook));
        trainer.fit(dataset, indices);
      },
      [&](const std::string& resume_path, train::StepHook hook) {
        // Different init seed: everything must come from the checkpoint.
        Rng rng(777);
        resumed_model = std::make_unique<model::ReslimModel>(
            elastic_model_config(), rng);
        resumed_trainer = std::make_unique<train::Trainer>(
            *resumed_model, elastic_trainer_config(dir));
        resumed_trainer->load_state(resume_path);
        EXPECT_EQ(resumed_trainer->global_step(), scenario.kill_at_step);
        resumed_trainer->set_step_hook(std::move(hook));
        resumed_trainer->fit(dataset, indices);
      });
  kernels::set_max_threads(0);

  EXPECT_TRUE(outcome.killed);
  EXPECT_EQ(outcome.killed_at_step, scenario.kill_at_step);

  // Loss stream: stitched (pre-kill + resumed) equals uninterrupted at the
  // target layout, bit for bit.
  ASSERT_EQ(outcome.losses.size(), reference.size());
  for (const auto& [step, loss] : reference) {
    ASSERT_TRUE(outcome.losses.count(step)) << "missing step " << step;
    EXPECT_EQ(outcome.losses.at(step), loss)
        << "loss diverged at step " << step;
  }

  // Parameters and AdamW moments: bit-identical to the reference.
  const auto expect = ref_model.parameters();
  const auto got = resumed_model->parameters();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect_bitwise_equal(expect[i]->value, got[i]->value, expect[i]->name);
  }
  expect_same_optimizer(ref_trainer.optimizer(0),
                        resumed_trainer->optimizer(0));

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

TEST(ElasticResume, TrainerKillShrinkResumeBitIdentical) {
  run_trainer_scenario(/*from_workers=*/4, /*to_workers=*/2, "shrink");
}

TEST(ElasticResume, TrainerKillGrowResumeBitIdentical) {
  run_trainer_scenario(/*from_workers=*/2, /*to_workers=*/3, "grow");
}

TEST(ElasticResume, TilesTrainerKillShrinkResumeBitIdentical) {
  const data::SyntheticDataset dataset(elastic_dataset_config());
  const auto indices = range_indices(4);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_elastic_tiles")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
  std::filesystem::create_directories(dir);

  const auto factory = [] {
    Rng rng(12);  // same seed per replica: replicas start in sync
    return std::make_unique<model::ReslimModel>(elastic_model_config(), rng);
  };
  const TileSpec tiles{2, 2, 2};

  kernels::set_max_threads(2);
  std::map<std::int64_t, double> reference;
  auto ref_config = elastic_trainer_config(dir + "_ref");
  train::Trainer ref_trainer(factory, tiles, ref_config);
  ref_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { reference[step] = loss; });
  ref_trainer.fit(dataset, indices);

  ElasticScenario scenario;
  scenario.kill_at_step = 1;
  scenario.from_workers = 4;
  scenario.to_workers = 2;
  scenario.checkpoint_path =
      (std::filesystem::path(dir) / "latest.o2ck").string();
  scenario.work_prefix = (std::filesystem::path(dir) / "elastic").string();
  scenario.resume_path =
      (std::filesystem::path(dir) / "resharded.o2ck").string();

  std::unique_ptr<train::Trainer> resumed_trainer;
  const ElasticOutcome outcome = run_kill_reshard_resume(
      scenario,
      [&](train::StepHook hook) {
        train::Trainer trainer(factory, tiles,
                               elastic_trainer_config(dir));
        trainer.set_step_hook(std::move(hook));
        trainer.fit(dataset, indices);
      },
      [&](const std::string& resume_path, train::StepHook hook) {
        resumed_trainer = std::make_unique<train::Trainer>(
            factory, tiles, elastic_trainer_config(dir));
        resumed_trainer->load_state(resume_path);
        EXPECT_EQ(resumed_trainer->global_step(), scenario.kill_at_step);
        resumed_trainer->set_step_hook(std::move(hook));
        resumed_trainer->fit(dataset, indices);
      });
  kernels::set_max_threads(0);

  EXPECT_TRUE(outcome.killed);
  ASSERT_EQ(outcome.losses.size(), reference.size());
  for (const auto& [step, loss] : reference) {
    EXPECT_EQ(outcome.losses.at(step), loss)
        << "loss diverged at step " << step;
  }
  EXPECT_LT(resumed_trainer->replica_divergence(), 1e-6f);
  const auto expect = ref_trainer.replica(0).parameters();
  const auto got = resumed_trainer->replica(0).parameters();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect_bitwise_equal(expect[i]->value, got[i]->value, expect[i]->name);
  }
  expect_same_optimizer(ref_trainer.optimizer(0),
                        resumed_trainer->optimizer(0));

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

TEST(ElasticResume, HarnessRequiresTheKillToFire) {
  const data::SyntheticDataset dataset(elastic_dataset_config());
  const auto indices = range_indices(2);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_elastic_nokill")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ElasticScenario scenario;
  scenario.kill_at_step = 1000;  // far beyond the run length
  scenario.from_workers = 2;
  scenario.to_workers = 1;
  scenario.checkpoint_path =
      (std::filesystem::path(dir) / "latest.o2ck").string();
  scenario.work_prefix = (std::filesystem::path(dir) / "elastic").string();
  scenario.resume_path =
      (std::filesystem::path(dir) / "resharded.o2ck").string();

  EXPECT_THROW(
      run_kill_reshard_resume(
          scenario,
          [&](train::StepHook hook) {
            Rng rng(4);
            model::ReslimModel model(elastic_model_config(), rng);
            train::Trainer trainer(model, elastic_trainer_config(dir));
            trainer.set_step_hook(std::move(hook));
            trainer.fit(dataset, indices);
          },
          [&](const std::string&, train::StepHook) {}),
      Error);
  kernels::set_max_threads(0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace orbit2::elastic
