// Data-pipeline benchmarks: sample-build and epoch-level timings for the
// synthetic dataset, plus an obs-traced 2-step TILES Trainer run whose
// train/data phase totals quantify input-pipeline cost against the model
// phases. Emits a JSON array on stdout so EXPERIMENTS.md and CI can diff
// runs mechanically (same contract as bench_kernels).
//
// Usage: bench_data [--reps N] [--threads N] [--quick] [--trace PATH]
//   --reps N     timing repetitions per case, best-of (default 3)
//   --threads N  kernel thread count for the parallel variants (default 4)
//   --quick      smaller grids / fewer samples (CI smoke runs)
//   --trace PATH enable obs tracing and write Chrome trace JSON to PATH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "data/dataset.hpp"
#include "model/reslim.hpp"
#include "train/trainer.hpp"

namespace {

using orbit2::Rng;
using orbit2::Tensor;

struct Record {
  std::string bench;    // e.g. "sample_build"
  std::string config;   // e.g. "128x256:fixed"
  std::string variant;  // e.g. "first_sample" / "steady_state"
  std::size_t threads = 1;
  double seconds = 0.0;
  double checksum = 0.0;  // sum of sample elements; sanity, not bit-exactness
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double sample_checksum(const orbit2::data::Sample& s) {
  double acc = 0.0;
  for (const float v : s.input.data()) acc += static_cast<double>(v);
  for (const float v : s.target.data()) acc += static_cast<double>(v);
  return acc;
}

// Best-of-`reps` wall time of fn(); fn returns a checksum so the work cannot
// be optimized away. Cases slower than a second stop after one rep to bound
// total harness runtime.
template <typename Fn>
Record time_case(const std::string& bench, const std::string& config,
                 const std::string& variant, std::size_t threads, int reps,
                 Fn&& fn) {
  Record rec;
  rec.bench = bench;
  rec.config = config;
  rec.variant = variant;
  rec.threads = threads;
  rec.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    rec.checksum = fn();
    const double t1 = now_seconds();
    rec.seconds = std::min(rec.seconds, t1 - t0);
    if (t1 - t0 > 1.0) break;
  }
  return rec;
}

void emit_json(const std::vector<Record>& records) {
  std::printf("[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::printf(
        "  {\"bench\": \"%s\", \"config\": \"%s\", \"variant\": \"%s\", "
        "\"threads\": %zu, \"seconds\": %.6f, \"checksum\": %.6g}%s\n",
        r.bench.c_str(), r.config.c_str(), r.variant.c_str(), r.threads,
        r.seconds, r.checksum, i + 1 < records.size() ? "," : "");
  }
  std::printf("]\n");
}

orbit2::data::DatasetConfig dataset_config(std::int64_t h, std::int64_t w,
                                           bool fixed_region) {
  orbit2::data::DatasetConfig config;
  config.hr_h = h;
  config.hr_w = w;
  config.upscale = 4;
  config.seed = 99;
  config.fixed_region = fixed_region;
  return config;
}

// Total wall seconds of spans named `name` in the current obs snapshot.
double span_total_seconds(const std::string& name) {
  double total_ns = 0.0;
  for (const auto& s : orbit2::obs::snapshot_spans()) {
    if (!s.simulated && s.name == name) {
      total_ns += static_cast<double>(s.dur_ns);
    }
  }
  return total_ns * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::size_t threads = 4;
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--reps N] [--threads N] [--quick] "
                   "[--trace PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty()) orbit2::obs::set_enabled(true);

  std::vector<Record> records;
  const std::size_t kSerial = 1;
  const std::int64_t h = quick ? 64 : 128;
  const std::int64_t w = quick ? 128 : 256;
  const std::int64_t epoch_samples = quick ? 4 : 8;

  // --- Sample build: full catalogue, fixed vs fresh terrain. ---
  // "first_sample" constructs a fresh dataset per rep, so per-dataset caches
  // start cold; "steady_state" reuses one dataset, so terrain/filter caches
  // (when present) are warm after the priming call.
  for (const bool fixed : {true, false}) {
    char config_tag[64];
    std::snprintf(config_tag, sizeof(config_tag), "%lldx%lld:%s",
                  static_cast<long long>(h), static_cast<long long>(w),
                  fixed ? "fixed" : "fresh");
    for (const std::size_t t : {kSerial, threads}) {
      orbit2::kernels::set_max_threads(t);
      records.push_back(
          time_case("sample_build", config_tag, "first_sample", t, reps, [&] {
            orbit2::data::SyntheticDataset dataset(dataset_config(h, w, fixed));
            return sample_checksum(dataset.sample(0));
          }));
      {
        orbit2::data::SyntheticDataset dataset(dataset_config(h, w, fixed));
        (void)dataset.sample(0);  // prime per-dataset caches
        std::int64_t index = 0;
        records.push_back(
            time_case("sample_build", config_tag, "steady_state", t, reps,
                      [&] { return sample_checksum(dataset.sample(index++)); }));
      }
      // Epoch-level: a full pass over `epoch_samples` indices.
      {
        orbit2::data::SyntheticDataset dataset(dataset_config(h, w, fixed));
        char epoch_tag[80];
        std::snprintf(epoch_tag, sizeof(epoch_tag), "%s:n%lld", config_tag,
                      static_cast<long long>(epoch_samples));
        records.push_back(
            time_case("epoch_build", epoch_tag, "steady_state", t, reps, [&] {
              double acc = 0.0;
              for (std::int64_t i = 0; i < epoch_samples; ++i) {
                acc += sample_checksum(dataset.sample(i));
              }
              return acc;
            }));
      }
    }
    orbit2::kernels::set_max_threads(0);
  }

  // --- Obs-traced 2-step TILES Trainer run (fixed region): per-phase span
  // totals expose how much of the step the data pipeline consumes. The
  // scenario is the paper's regional fine-tuning task (one fixed terrain,
  // precipitation downscaled from its coarse analogue), where terrain
  // synthesis is two of the three GRFs each sample pays — the case the
  // terrain memo is for. ---
  {
    const bool obs_was_enabled = orbit2::obs::enabled();
    if (!obs_was_enabled) orbit2::obs::set_enabled(true);

    orbit2::data::DatasetConfig dconfig =
        dataset_config(quick ? 32 : 64, quick ? 64 : 128, /*fixed_region=*/true);
    dconfig.input_variables = {dconfig.input_variables[orbit2::data::variable_index(
        dconfig.input_variables, "total_precipitation")]};
    dconfig.output_variables = {dconfig.output_variables[orbit2::data::variable_index(
        dconfig.output_variables, "prcp")]};
    const orbit2::data::SyntheticDataset dataset(dconfig);

    orbit2::model::ModelConfig mconfig = orbit2::model::preset_tiny();
    mconfig.in_channels = 1;
    mconfig.out_channels = 1;
    mconfig.upscale = 4;

    orbit2::train::TrainerConfig tconfig;
    tconfig.epochs = 1;
    tconfig.batch_size = 2;
    tconfig.shuffle = false;
    orbit2::TileSpec tiles;
    tiles.rows = 2;
    tiles.cols = 2;
    tiles.halo = 2;

    orbit2::kernels::set_max_threads(threads);
    char tag[64];
    std::snprintf(tag, sizeof(tag), "%lldx%lld:fixed:2step",
                  static_cast<long long>(dconfig.hr_h),
                  static_cast<long long>(dconfig.hr_w));

    // Two identical fits against the same dataset: the first starts with
    // every per-dataset cache cold (terrain memo, filter/plan caches), the
    // second sees them warm. Real fine-tuning runs thousands of steps, so
    // "steady" is the representative number; "cold" bounds the one-time
    // warm-up cost. Phase records are per-fit deltas of the span totals.
    const char* kPhases[] = {"train/data", "train/forward", "train/backward",
                             "train/optimizer"};
    double prior[4] = {0.0, 0.0, 0.0, 0.0};
    for (const char* variant : {"cold", "steady"}) {
      orbit2::train::Trainer trainer(
          [mconfig] {
            Rng rng(4);
            return std::make_unique<orbit2::model::ReslimModel>(mconfig, rng);
          },
          tiles, tconfig);
      const double t0 = now_seconds();
      // 4 samples / batch 2 -> exactly 2 optimizer steps.
      trainer.fit(dataset, {0, 1, 2, 3});
      const double elapsed = now_seconds() - t0;

      Record total;
      total.bench = "tiles_train";
      total.config = tag;
      total.variant = std::string("wall_total:") + variant;
      total.threads = threads;
      total.seconds = elapsed;
      records.push_back(total);
      for (std::size_t p = 0; p < 4; ++p) {
        const double cumulative = span_total_seconds(kPhases[p]);
        Record rec;
        rec.bench = "tiles_train_phase";
        rec.config = tag;
        rec.variant = std::string(kPhases[p]) + ":" + variant;
        rec.threads = threads;
        rec.seconds = cumulative - prior[p];
        prior[p] = cumulative;
        records.push_back(rec);
      }
    }
    orbit2::kernels::set_max_threads(0);
    if (!obs_was_enabled) orbit2::obs::set_enabled(false);
  }

  emit_json(records);
  if (!trace_path.empty()) {
    orbit2::obs::set_enabled(false);
    orbit2::obs::write_chrome_trace(trace_path);
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
