// Trainer tests: single-replica training convergence, mixed-precision path,
// validation loss, checkpoint round trips, evaluation reports, and the
// TILES trainer (replica sync invariant, tiled prediction shape).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "core/crc32.hpp"
#include "core/kernels.hpp"
#include "model/reslim.hpp"
#include "train/checkpoint.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace orbit2::train {
namespace {

data::DatasetConfig small_dataset_config() {
  data::DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  config.seed = 77;
  config.fixed_region = true;
  // Trim the variable list for speed: 5 inputs, 2 outputs.
  config.input_variables.resize(5);
  config.output_variables.resize(2);
  return config;
}

model::ModelConfig small_model_config() {
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  return config;
}

std::vector<std::int64_t> range_indices(std::int64_t n, std::int64_t offset = 0) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = offset + i;
  return out;
}

TEST(Trainer, LossDecreasesOverEpochs) {
  data::SyntheticDataset dataset(small_dataset_config());
  Rng rng(1);
  model::ReslimModel model(small_model_config(), rng);
  TrainerConfig config;
  config.epochs = 4;
  config.batch_size = 2;
  config.lr = 2e-3f;
  Trainer trainer(model, config);

  const auto indices = range_indices(6);
  const EpochStats first = trainer.train_epoch(dataset, indices);
  EpochStats last = first;
  for (int e = 1; e < 4; ++e) last = trainer.train_epoch(dataset, indices);
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_EQ(last.samples, 6);
  EXPECT_GT(trainer.global_step(), 0);
}

TEST(Trainer, MixedPrecisionRunsAndConverges) {
  data::SyntheticDataset dataset(small_dataset_config());
  Rng rng(2);
  model::ReslimModel model(small_model_config(), rng);
  TrainerConfig config;
  config.epochs = 3;
  config.batch_size = 2;
  config.lr = 2e-3f;
  config.mixed_precision = true;
  Trainer trainer(model, config);
  const auto indices = range_indices(4);
  const EpochStats first = trainer.train_epoch(dataset, indices);
  EpochStats last = first;
  for (int e = 1; e < 3; ++e) last = trainer.train_epoch(dataset, indices);
  EXPECT_LT(last.mean_loss, first.mean_loss * 1.05);
  for (float v : model.parameters()[0]->value.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Trainer, ValidationLossFiniteAndStableWithoutTraining) {
  data::SyntheticDataset dataset(small_dataset_config());
  Rng rng(3);
  model::ReslimModel model(small_model_config(), rng);
  TrainerConfig config;
  Trainer trainer(model, config);
  const auto indices = range_indices(3);
  const double v1 = trainer.validation_loss(dataset, indices);
  const double v2 = trainer.validation_loss(dataset, indices);
  EXPECT_TRUE(std::isfinite(v1));
  EXPECT_DOUBLE_EQ(v1, v2);  // no hidden state mutation
}

TEST(Checkpoint, RoundTripRestoresExactWeights) {
  Rng rng(4);
  model::ReslimModel model(small_model_config(), rng);
  const std::string path = "/tmp/orbit2_test_ckpt.o2ck";
  save_checkpoint(path, model);

  Rng rng2(99);  // different init
  model::ReslimModel restored(small_model_config(), rng2);
  load_checkpoint(path, restored);

  const auto a = model.parameters();
  const auto b = restored.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::int64_t j = 0; j < a[i]->numel(); ++j) {
      EXPECT_EQ(a[i]->value[j], b[i]->value[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedModelThrows) {
  Rng rng(5);
  model::ReslimModel model(small_model_config(), rng);
  const std::string path = "/tmp/orbit2_test_ckpt2.o2ck";
  save_checkpoint(path, model);
  auto other_config = small_model_config();
  other_config.embed_dim = 64;
  Rng rng2(6);
  model::ReslimModel other(other_config, rng2);
  EXPECT_THROW(load_checkpoint(path, other), Error);
  std::remove(path.c_str());
}

TEST(Evaluate, ReportsPerVariableWithLogSpacePrecip) {
  data::DatasetConfig dconfig = small_dataset_config();
  // Keep tmin (gaussian); add prcp (log-normal) as second output.
  dconfig.output_variables = {data::daymet_output_variables()[0],
                              data::daymet_output_variables()[2]};
  data::SyntheticDataset dataset(dconfig);
  Rng rng(7);
  model::ReslimModel model(small_model_config(), rng);
  const auto reports = evaluate_model(model, dataset, range_indices(2));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].variable, "tmin");
  EXPECT_EQ(reports[1].variable, "prcp");
  for (const auto& r : reports) {
    EXPECT_TRUE(std::isfinite(r.report.r2));
    EXPECT_GT(r.report.rmse, 0.0);
    EXPECT_GT(r.spectral_error, 0.0);
  }
}

TEST(Evaluate, TrainingImprovesReports) {
  data::SyntheticDataset dataset(small_dataset_config());
  Rng rng(8);
  model::ReslimModel model(small_model_config(), rng);
  const auto eval_indices = range_indices(2, 8);
  const auto before = evaluate_model(model, dataset, eval_indices);

  TrainerConfig config;
  config.epochs = 5;
  config.batch_size = 2;
  config.lr = 2e-3f;
  Trainer trainer(model, config);
  trainer.fit(dataset, range_indices(8));
  const auto after = evaluate_model(model, dataset, eval_indices);
  // RMSE improves on the first (temperature-like) variable.
  EXPECT_LT(after[0].report.rmse, before[0].report.rmse);
}

// ---- TILES trainer ---------------------------------------------------------

TEST(TilesTrainer, ReplicasStayInSync) {
  data::SyntheticDataset dataset(small_dataset_config());
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 2;
  config.lr = 1e-3f;
  Trainer trainer(
      [] {
        Rng rng(9);  // same seed per replica
        return std::make_unique<model::ReslimModel>(small_model_config(), rng);
      },
      TileSpec{2, 2, 2}, config);
  EXPECT_EQ(trainer.replica_count(), 4u);
  EXPECT_EQ(trainer.replica_divergence(), 0.0f);
  trainer.train_epoch(dataset, range_indices(4));
  // The all-reduce + identical optimizer steps keep replicas bit-close.
  EXPECT_LT(trainer.replica_divergence(), 1e-5f);
}

TEST(TilesTrainer, TrainingReducesLoss) {
  data::SyntheticDataset dataset(small_dataset_config());
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 2;
  config.lr = 2e-3f;
  Trainer trainer(
      [] {
        Rng rng(10);
        return std::make_unique<model::ReslimModel>(small_model_config(), rng);
      },
      TileSpec{2, 2, 2}, config);
  const auto indices = range_indices(4);
  const EpochStats first = trainer.train_epoch(dataset, indices);
  EpochStats last = first;
  for (int e = 0; e < 3; ++e) last = trainer.train_epoch(dataset, indices);
  EXPECT_LT(last.mean_loss, first.mean_loss);
}

TEST(TilesTrainer, PredictionHasFullShapeAndNoSeamsOnSmoothModel) {
  data::SyntheticDataset dataset(small_dataset_config());
  TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 2;
  Trainer trainer(
      [] {
        Rng rng(11);
        return std::make_unique<model::ReslimModel>(small_model_config(), rng);
      },
      TileSpec{2, 2, 2}, config);
  const data::Sample sample = dataset.sample(0);
  const Tensor prediction = trainer.predict(sample.input);
  EXPECT_EQ(prediction.shape(), sample.target.shape());
  for (float v : prediction.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(TilesTrainer, PartialBatchEpochBitsPinnedAtEveryThreadCount) {
  // 7 samples at batch 3: two full steps, then a trailing 1-sample step.
  // The 2x2 pins were taken from the trainer that built and trained one
  // sample at a time; the one-model pins from the single-replica trainer
  // that preceded the one-tile case. A change to batch assembly, to the
  // per-replica gradient accumulation order, to the tile-order loss
  // reduction or to the AMP step moves them.
  struct Case {
    const char* name;
    bool one_model;
    bool mixed_precision;
    std::uint64_t final_loss_bits;
    std::uint64_t mean_loss_bits;
    std::uint32_t param_crc;
  };
  const Case cases[] = {
      {"2x2 tiles", false, false, 0x40046caf28000000ull,
       0x4003431c45b6db6eull, 0xaa717f50u},
      {"one model", true, false, 0x4004d36480000000ull,
       0x4003996ac0000000ull, 0x828c9f77u},
      {"one model amp", true, true, 0x40051f9780000000ull,
       0x4003b00492492492ull, 0x7716af9cu},
  };
  const auto factory = [] {
    Rng rng(12);
    return std::make_unique<model::ReslimModel>(small_model_config(), rng);
  };
  data::SyntheticDataset dataset(small_dataset_config());
  for (const std::size_t threads : {1u, 4u}) {
    kernels::set_max_threads(threads);
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << " threads=" << threads);
      TrainerConfig config;
      config.epochs = 1;
      config.batch_size = 3;
      config.lr = 1e-3f;
      config.mixed_precision = c.mixed_precision;
      // The one-model trainer borrows this model.
      const std::unique_ptr<model::ReslimModel> model = factory();
      const auto trainer =
          c.one_model
              ? std::make_unique<Trainer>(*model, config)
              : std::make_unique<Trainer>(factory, TileSpec{2, 2, 2}, config);
      std::vector<double> step_losses;
      trainer->set_step_hook(
          [&](std::int64_t, double loss) { step_losses.push_back(loss); });
      const EpochStats stats = trainer->train_epoch(dataset, range_indices(7));
      ASSERT_EQ(step_losses.size(), 3u);
      EXPECT_EQ(stats.samples, 7);
      EXPECT_EQ(trainer->global_step(), 3);
      EXPECT_EQ(trainer->replica_divergence(), 0.0f);

      std::uint64_t final_bits = 0;
      std::uint64_t mean_bits = 0;
      std::memcpy(&final_bits, &step_losses.back(), sizeof(final_bits));
      std::memcpy(&mean_bits, &stats.mean_loss, sizeof(mean_bits));
      Crc32 crc;
      for (const autograd::ParamPtr& p : trainer->replica(0).parameters()) {
        crc.update(p->value.data().data(),
                   p->value.data().size() * sizeof(float));
      }
      EXPECT_EQ(final_bits, c.final_loss_bits);
      EXPECT_EQ(mean_bits, c.mean_loss_bits);
      EXPECT_EQ(crc.value(), c.param_crc);
    }
  }
  kernels::set_max_threads(0);
}

TEST(TilesTrainer, InvalidTileSpecThrowsBeforeBuildingReplicas) {
  // {-2,-2,2} has a positive tile count, so a product check alone would
  // build four replicas and fail only at the first step.
  TrainerConfig config;
  config.epochs = 1;
  for (const TileSpec spec :
       {TileSpec{-2, -2, 2}, TileSpec{0, 4, 0}, TileSpec{1, 1, -1}}) {
    int built = 0;
    EXPECT_THROW(Trainer(
                     [&built] {
                       ++built;
                       Rng rng(13);
                       return std::make_unique<model::ReslimModel>(
                           small_model_config(), rng);
                     },
                     spec, config),
                 Error)
        << spec.rows << "x" << spec.cols << " halo " << spec.halo;
    EXPECT_EQ(built, 0);
  }
}

}  // namespace
}  // namespace orbit2::train
