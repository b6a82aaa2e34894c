// US regional downscaling: the paper's fine-tuning scenario (§V-E).
//
// Pretrains a Reslim on "global" synthetic data (fresh terrain per sample),
// saves a checkpoint, fine-tunes on a fixed US-like region (DAYMET
// analogue), and reports Table-IV style metrics for minimum temperature and
// total precipitation, before and after fine-tuning. Also demonstrates
// TILES training: the fine-tune runs tile-parallel on 4 virtual GPUs with
// per-batch gradient averaging.
//
//   $ ./examples/us_downscaling

#include <cstdio>

#include "model/reslim.hpp"
#include "train/checkpoint.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace {

orbit2::data::DatasetConfig make_config(std::uint64_t seed, bool fixed) {
  orbit2::data::DatasetConfig config;
  config.hr_h = 32;
  config.hr_w = 64;
  config.upscale = 4;
  config.seed = seed;
  config.fixed_region = fixed;
  const auto& outs = orbit2::data::daymet_output_variables();
  config.output_variables = {outs[0], outs[2]};  // tmin, prcp
  return config;
}

orbit2::model::ModelConfig make_model_config() {
  orbit2::model::ModelConfig config = orbit2::model::preset_tiny();
  config.in_channels = 23;
  config.out_channels = 2;
  config.upscale = 4;
  return config;
}

void print_reports(const char* title,
                   const std::vector<orbit2::train::VariableReport>& reports) {
  std::printf("%s\n", title);
  for (const auto& r : reports) {
    std::printf("  %-6s R2 %7.4f  RMSE %8.4f  SSIM %6.3f  PSNR %6.2f\n",
                r.variable.c_str(), r.report.r2, r.report.rmse, r.report.ssim,
                r.report.psnr);
  }
}

}  // namespace

int main() {
  using namespace orbit2;

  // ---- Pretraining on global data ---------------------------------------
  data::SyntheticDataset global_data(make_config(11, /*fixed=*/false));
  Rng rng(2);
  model::ReslimModel model(make_model_config(), rng);

  train::TrainerConfig pre_config;
  pre_config.epochs = 10;
  pre_config.batch_size = 2;
  pre_config.lr = 2e-3f;
  train::Trainer pretrainer(model, pre_config);
  std::printf("pretraining on global synthetic ERA5 analogue...\n");
  std::vector<std::int64_t> indices = {0, 1, 2, 3, 4, 5, 6, 7};
  pretrainer.fit(global_data, indices);
  train::save_checkpoint("us_downscaling_pretrained.o2ck", model);
  std::printf("checkpoint written: us_downscaling_pretrained.o2ck\n\n");

  // ---- Evaluation on the US region before fine-tuning ---------------------
  data::SyntheticDataset us_data(make_config(12, /*fixed=*/true));
  const std::vector<std::int64_t> eval_indices = {8, 9};
  print_reports("US region, pretrained only:",
                train::evaluate_model(model, us_data, eval_indices));

  // ---- TILES fine-tuning on the US region -------------------------------
  std::printf("\nfine-tuning with TILES (2x2 tiles, halo 2, 4 virtual "
              "GPUs)...\n");
  train::TrainerConfig tune_config;
  tune_config.epochs = 1;
  tune_config.batch_size = 2;
  tune_config.lr = 1e-3f;
  train::Trainer tiles_trainer(
      [] {
        Rng replica_rng(3);
        auto replica =
            std::make_unique<model::ReslimModel>(make_model_config(), replica_rng);
        train::load_checkpoint("us_downscaling_pretrained.o2ck", *replica);
        return replica;
      },
      TileSpec{2, 2, 2}, tune_config);

  for (int epoch = 0; epoch < 6; ++epoch) {
    const train::EpochStats stats = tiles_trainer.train_epoch(us_data, indices);
    std::printf("  epoch %d: loss %.4f, replica divergence %.2e\n", epoch,
                stats.mean_loss, tiles_trainer.replica_divergence());
  }

  // Evaluate the fine-tuned replica 0 (all replicas are in sync).
  print_reports("\nUS region, after TILES fine-tuning:",
                train::evaluate_model(tiles_trainer.replica(0), us_data,
                                      eval_indices));

  // Tiled inference: stitch a full prediction from per-tile downscaling.
  const data::Sample sample = us_data.sample(eval_indices[0]);
  const Tensor prediction = tiles_trainer.predict(sample.input);
  std::printf("\ntiled inference output: %s\n",
              prediction.shape().to_string().c_str());
  std::remove("us_downscaling_pretrained.o2ck");
  return 0;
}
