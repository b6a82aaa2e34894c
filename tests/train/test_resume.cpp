// Crash/resume integration tests: `fit` is killed at an arbitrary optimizer
// step (a step hook that throws, standing in for SIGKILL — checkpoints are
// written before the hook fires, so a valid file always survives the kill),
// then a fresh trainer restores the latest checkpoint and continues. The
// acceptance bar is bit-identical loss trajectories and final parameters
// versus an uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/kernels.hpp"
#include "model/reslim.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace orbit2::train {
namespace {

struct SimulatedKill : std::runtime_error {
  SimulatedKill() : std::runtime_error("simulated kill") {}
};

data::DatasetConfig resume_dataset_config() {
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

model::ModelConfig resume_model_config() {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  return config;
}

TrainerConfig resume_trainer_config(const std::string& dir) {
  TrainerConfig config;
  config.epochs = 2;
  config.batch_size = 2;
  config.lr = 2e-3f;
  config.shuffle = true;  // resume must also replay the shuffled order
  config.checkpoint_dir = dir;
  config.checkpoint_every_steps = 1;
  return config;
}

std::vector<std::int64_t> range_indices(std::int64_t n) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = i;
  return out;
}

using Trajectory = std::map<std::int64_t, double>;

TEST(Resume, TrainerKilledMidRunContinuesBitIdentically) {
  const data::SyntheticDataset dataset(resume_dataset_config());
  const auto indices = range_indices(6);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_resume_trainer")
          .string();
  std::filesystem::remove_all(dir);

  // Reference: uninterrupted run.
  Trajectory reference;
  Rng ref_rng(4);
  model::ReslimModel ref_model(resume_model_config(), ref_rng);
  Trainer ref_trainer(ref_model, resume_trainer_config(dir + "_ref"));
  ref_trainer.set_step_hook([&](std::int64_t step, double loss) {
    reference[step] = loss;
  });
  ref_trainer.fit(dataset, indices);
  ASSERT_GE(reference.size(), 4u);  // 3 steps/epoch x 2 epochs

  // Killed run: same init, hook throws after the 2nd optimizer step of 6
  // (mid-epoch, so the resume must replay the interrupted shuffle order).
  const std::int64_t kill_at = 2;
  Trajectory interrupted;
  Rng kill_rng(4);
  model::ReslimModel kill_model(resume_model_config(), kill_rng);
  Trainer kill_trainer(kill_model, resume_trainer_config(dir));
  kill_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
    if (step >= kill_at) throw SimulatedKill();
  });
  EXPECT_THROW(kill_trainer.fit(dataset, indices), SimulatedKill);
  EXPECT_EQ(interrupted.size(), static_cast<std::size_t>(kill_at));

  // Recovery: brand-new model (different init) + trainer restore and finish.
  Rng resume_rng(777);
  model::ReslimModel resume_model(resume_model_config(), resume_rng);
  Trainer resume_trainer(resume_model, resume_trainer_config(dir));
  resume_trainer.load_state(
      (std::filesystem::path(dir) / "latest.o2ck").string());
  EXPECT_EQ(resume_trainer.global_step(), kill_at);
  resume_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
  });
  resume_trainer.fit(dataset, indices);

  // The stitched trajectory matches the uninterrupted one bit-for-bit.
  ASSERT_EQ(interrupted.size(), reference.size());
  for (const auto& [step, loss] : reference) {
    ASSERT_TRUE(interrupted.count(step)) << "missing step " << step;
    EXPECT_EQ(interrupted.at(step), loss) << "loss diverged at step " << step;
  }

  // Final parameters are bit-equal too.
  const auto expect = ref_model.parameters();
  const auto got = resume_model.parameters();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (std::int64_t j = 0; j < expect[i]->numel(); ++j) {
      ASSERT_EQ(expect[i]->value[j], got[i]->value[j])
          << "param " << expect[i]->name << "[" << j << "]";
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

std::uint32_t replica0_crc(Trainer& trainer) {
  Crc32 crc;
  for (const autograd::ParamPtr& p : trainer.replica(0).parameters()) {
    crc.update(p->value.data().data(), p->value.data().size() * sizeof(float));
  }
  return crc.value();
}

TEST(Resume, TrainerMixedPrecisionScalerSurvivesResume) {
  // One model, then 2x2 TILES: the GradScaler state rides the checkpoint,
  // so a kill->resume AMP run matches the uninterrupted one bit for bit.
  const data::SyntheticDataset dataset(resume_dataset_config());
  const auto indices = range_indices(4);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_resume_amp").string();

  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(tiled ? "2x2 tiles" : "one model");
    std::filesystem::remove_all(dir);
    // One-model trainers borrow their model from here.
    std::vector<std::unique_ptr<model::ReslimModel>> models;
    const auto make_trainer = [&](std::uint64_t seed,
                                  const TrainerConfig& config) {
      const auto factory = [seed] {
        Rng rng(seed);
        return std::make_unique<model::ReslimModel>(resume_model_config(),
                                                    rng);
      };
      if (tiled) {
        return std::make_unique<Trainer>(factory, TileSpec{2, 2, 2}, config);
      }
      models.push_back(factory());
      return std::make_unique<Trainer>(*models.back(), config);
    };

    auto config = resume_trainer_config(dir);
    config.mixed_precision = true;

    Trajectory reference;
    auto ref_config = config;
    ref_config.checkpoint_dir = dir + "_ref";
    const auto ref_trainer = make_trainer(5, ref_config);
    ref_trainer->set_step_hook(
        [&](std::int64_t step, double loss) { reference[step] = loss; });
    ref_trainer->fit(dataset, indices);
    EXPECT_EQ(ref_trainer->replica_divergence(), 0.0f);

    // AMP really runs: the fp32 run from the same init ends elsewhere.
    auto fp32_config = ref_config;
    fp32_config.mixed_precision = false;
    fp32_config.checkpoint_dir = dir + "_fp32";
    const auto fp32_trainer = make_trainer(5, fp32_config);
    fp32_trainer->fit(dataset, indices);
    EXPECT_NE(replica0_crc(*fp32_trainer), replica0_crc(*ref_trainer));

    Trajectory interrupted;
    const auto kill_trainer = make_trainer(5, config);
    kill_trainer->set_step_hook([&](std::int64_t step, double loss) {
      interrupted[step] = loss;
      if (step >= 1) throw SimulatedKill();
    });
    EXPECT_THROW(kill_trainer->fit(dataset, indices), SimulatedKill);

    const auto resume_trainer = make_trainer(888, config);
    resume_trainer->load_state(
        (std::filesystem::path(dir) / "latest.o2ck").string());
    resume_trainer->set_step_hook(
        [&](std::int64_t step, double loss) { interrupted[step] = loss; });
    resume_trainer->fit(dataset, indices);

    ASSERT_EQ(interrupted.size(), reference.size());
    for (const auto& [step, loss] : reference) {
      EXPECT_EQ(interrupted.at(step), loss) << "loss diverged at step " << step;
    }
    EXPECT_EQ(resume_trainer->replica_divergence(), 0.0f);
    EXPECT_EQ(replica0_crc(*resume_trainer), replica0_crc(*ref_trainer));
    // The scaler rides the checkpoint: the resumed run ends on the
    // reference's good-step count, which a fresh scaler would miss.
    const auto final_state = [](const std::string& d) {
      return peek_checkpoint((std::filesystem::path(d) / "latest.o2ck").string())
          .state;
    };
    EXPECT_GT(final_state(dir).scaler_scale, 0.0f);
    EXPECT_EQ(final_state(dir).scaler_good_steps,
              final_state(dir + "_ref").scaler_good_steps);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_ref");
    std::filesystem::remove_all(dir + "_fp32");
  }
}

TEST(Resume, TilesTrainerKilledMidRunContinuesBitIdentically) {
  const data::SyntheticDataset dataset(resume_dataset_config());
  const auto indices = range_indices(4);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_resume_tiles")
          .string();
  std::filesystem::remove_all(dir);

  const auto factory = [] {
    Rng rng(12);  // same seed per replica: replicas start in sync
    return std::make_unique<model::ReslimModel>(resume_model_config(), rng);
  };
  auto config = resume_trainer_config(dir);

  Trajectory reference;
  auto ref_config = config;
  ref_config.checkpoint_dir = dir + "_ref";
  Trainer ref_trainer(factory, TileSpec{2, 2, 2}, ref_config);
  ref_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { reference[step] = loss; });
  ref_trainer.fit(dataset, indices);
  ASSERT_GE(reference.size(), 3u);

  Trajectory interrupted;
  Trainer kill_trainer(factory, TileSpec{2, 2, 2}, config);
  kill_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
    if (step >= 1) throw SimulatedKill();
  });
  EXPECT_THROW(kill_trainer.fit(dataset, indices), SimulatedKill);

  Trainer resume_trainer(factory, TileSpec{2, 2, 2}, config);
  resume_trainer.load_state(
      (std::filesystem::path(dir) / "latest.o2ck").string());
  EXPECT_EQ(resume_trainer.global_step(), 1);
  resume_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { interrupted[step] = loss; });
  resume_trainer.fit(dataset, indices);

  ASSERT_EQ(interrupted.size(), reference.size());
  for (const auto& [step, loss] : reference) {
    EXPECT_EQ(interrupted.at(step), loss) << "loss diverged at step " << step;
  }
  // Replicas restored in sync, and the resumed run matches the reference.
  EXPECT_LT(resume_trainer.replica_divergence(), 1e-6f);
  const auto expect = ref_trainer.replica(0).parameters();
  const auto got = resume_trainer.replica(0).parameters();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (std::int64_t j = 0; j < expect[i]->numel(); ++j) {
      ASSERT_EQ(expect[i]->value[j], got[i]->value[j])
          << "param " << expect[i]->name << "[" << j << "]";
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

TEST(Resume, KillResumeBitIdenticalAcrossThreadCounts) {
  // The strongest form of the kernel-layer determinism contract: a serial
  // uninterrupted run must match a kill->resume run executed with
  // multithreaded kernels, bit for bit, in both loss trajectory and final
  // parameters.
  const data::SyntheticDataset dataset(resume_dataset_config());
  const auto indices = range_indices(4);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "orbit2_resume_mt").string();
  std::filesystem::remove_all(dir);
  const auto config = resume_trainer_config(dir);

  // Reference: uninterrupted, strictly serial kernels.
  kernels::set_max_threads(1);
  Trajectory reference;
  Rng ref_rng(9);
  model::ReslimModel ref_model(resume_model_config(), ref_rng);
  auto ref_config = config;
  ref_config.checkpoint_dir = dir + "_ref";
  Trainer ref_trainer(ref_model, ref_config);
  ref_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { reference[step] = loss; });
  ref_trainer.fit(dataset, indices);

  // Killed + resumed run with parallel kernels.
  kernels::set_max_threads(4);
  Trajectory interrupted;
  Rng kill_rng(9);
  model::ReslimModel kill_model(resume_model_config(), kill_rng);
  Trainer kill_trainer(kill_model, config);
  kill_trainer.set_step_hook([&](std::int64_t step, double loss) {
    interrupted[step] = loss;
    if (step >= 1) throw SimulatedKill();
  });
  EXPECT_THROW(kill_trainer.fit(dataset, indices), SimulatedKill);

  Rng resume_rng(999);
  model::ReslimModel resume_model(resume_model_config(), resume_rng);
  Trainer resume_trainer(resume_model, config);
  resume_trainer.load_state(
      (std::filesystem::path(dir) / "latest.o2ck").string());
  resume_trainer.set_step_hook(
      [&](std::int64_t step, double loss) { interrupted[step] = loss; });
  resume_trainer.fit(dataset, indices);
  kernels::set_max_threads(0);

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
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

TEST(Resume, SaveAndLoadStateRoundTripPreservesCursor) {
  const data::SyntheticDataset dataset(resume_dataset_config());
  const auto indices = range_indices(4);
  Rng rng(6);
  model::ReslimModel model(resume_model_config(), rng);
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 2;
  Trainer trainer(model, config);
  trainer.train_epoch(dataset, indices);

  const std::string path =
      (std::filesystem::temp_directory_path() / "orbit2_state_rt.o2ck")
          .string();
  trainer.save_state(path);

  Rng rng2(60);
  model::ReslimModel fresh(resume_model_config(), rng2);
  Trainer other(fresh, config);
  other.load_state(path);
  EXPECT_EQ(other.global_step(), trainer.global_step());
  EXPECT_EQ(other.epoch(), trainer.epoch());
  EXPECT_EQ(other.sample_cursor(), trainer.sample_cursor());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace orbit2::train
