// Quickstart: build a small Reslim foundation model, train it on synthetic
// paired climate data for a few epochs, downscale a held-out sample, and
// print accuracy metrics.
//
//   $ ./examples/quickstart [--trace PATH]
//
// With --trace PATH, the run records observability spans (train phases,
// kernels, attention) and writes Chrome trace-event JSON to PATH — load it
// in chrome://tracing or Perfetto, or summarize with tools/orbit2_trace.py.
//
// This walks the same API surface a real application uses:
//   data::SyntheticDataset  -> paired LR->HR samples
//   model::ReslimModel      -> the paper's architecture
//   train::Trainer          -> Bayesian-loss training loop (one TILES tile)
//   train::evaluate_model   -> Table-IV style metrics

#include <cstdio>
#include <cstring>
#include <string>

#include "core/obs.hpp"
#include "data/dataset.hpp"
#include "model/reslim.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
  using namespace orbit2;

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace PATH]\n", argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty()) obs::set_enabled(true);

  // 1. A paired downscaling dataset: 4x refinement, 23 ERA5-like input
  //    variables, 3 DAYMET-like outputs, deterministic in (seed, index).
  data::DatasetConfig dconfig;
  dconfig.hr_h = 32;
  dconfig.hr_w = 64;
  dconfig.upscale = 4;
  dconfig.seed = 7;
  dconfig.fixed_region = true;
  data::SyntheticDataset dataset(dconfig);
  std::printf("dataset: input %s -> target %s\n",
              dataset.sample(0).input.shape().to_string().c_str(),
              dataset.sample(0).target.shape().to_string().c_str());

  // 2. A small Reslim: flash attention, residual path, Bayesian loss.
  model::ModelConfig mconfig = model::preset_tiny();
  mconfig.in_channels = 23;
  mconfig.out_channels = 3;
  mconfig.upscale = 4;
  Rng rng(1);
  model::ReslimModel model(mconfig, rng);
  std::printf("model: %s, %lld parameters\n", mconfig.name.c_str(),
              static_cast<long long>(model.parameter_count()));

  // 3. Train for a few epochs.
  train::TrainerConfig tconfig;
  tconfig.epochs = 14;
  tconfig.batch_size = 2;
  tconfig.lr = 2e-3f;
  train::Trainer trainer(model, tconfig);
  std::vector<std::int64_t> train_indices = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::int64_t epoch = 0; epoch < tconfig.epochs; ++epoch) {
    const train::EpochStats stats = trainer.train_epoch(dataset, train_indices);
    if (epoch % 4 == 0 || epoch == tconfig.epochs - 1) {
      std::printf("epoch %lld: loss %.4f (%.2f s, %.3f s/sample)\n",
                  static_cast<long long>(epoch), stats.mean_loss,
                  stats.seconds, stats.seconds_per_sample());
    }
  }

  // 4. Downscale a held-out sample and evaluate in physical units.
  const auto reports = train::evaluate_model(model, dataset, {8, 9});
  std::printf("\nheld-out evaluation:\n");
  for (const auto& report : reports) {
    std::printf("  %-6s R2 %7.4f  RMSE %8.4f  SSIM %6.3f  PSNR %6.2f\n",
                report.variable.c_str(), report.report.r2, report.report.rmse,
                report.report.ssim, report.report.psnr);
  }
  std::printf("\nDone. See examples/us_downscaling.cpp for the full "
              "fine-tuning scenario.\n");

  if (!trace_path.empty()) {
    obs::set_enabled(false);
    obs::write_chrome_trace(trace_path);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
