// train_tiles: TilesTrainer on bench::us_dataset_config (64x128 HR fixed
// region, 8 -> 2 channels), 2x2 tiles with halo 2, batch 2, no shuffle, on
// two kernel threads.
// Step time is read at each optimizer-step boundary through set_step_hook.
//
// Why this workload: it is the only one that builds data samples, runs the
// autograd backward pass and writes parameters, so an inference-only gain
// that slows the eager forward shows here.
//
// Output check: a fixed reference run (its own dataset seed, two steps)
// must reproduce the final loss bits and the parameter CRC pinned in
// BENCHMARK.json; the timed trainer's replicas must stay bit-identical.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/crc32.hpp"
#include "core/kernels.hpp"
#include "harness.hpp"
#include "model/reslim.hpp"
#include "train/tiles_trainer.hpp"

namespace orbit2::perfbench {
namespace {

constexpr std::int64_t kBatch = 2;
constexpr std::int64_t kStepsPerCall = 8;
constexpr std::uint64_t kPinDatasetSeed = 0x0b17;
const TileSpec kTiles{2, 2, 2};

/// Two kernel threads, two tiles each. With one tile per thread, a helper
/// that wakes late leaves its tile to the caller and the step takes two tile
/// times, which on a shared VM made step time bimodal from run to run.
std::size_t train_threads() {
  return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

struct Setup {
  std::unique_ptr<data::SyntheticDataset> dataset;
  std::unique_ptr<train::TilesTrainer> trainer;
};

Setup build_setup(std::uint64_t dataset_seed) {
  kernels::set_max_threads(train_threads());  // restarts the kernel pool
  Setup setup;
  setup.dataset = std::make_unique<data::SyntheticDataset>(
      bench::us_dataset_config(dataset_seed));
  train::TrainerConfig config;
  config.epochs = 1;
  config.batch_size = kBatch;
  config.shuffle = false;
  const model::ModelConfig model_config = bench::bench_model_config(0, 8, 2);
  setup.trainer = std::make_unique<train::TilesTrainer>(
      [model_config] {
        Rng rng(4);
        return std::make_unique<model::ReslimModel>(model_config, rng);
      },
      kTiles, config);
  return setup;
}

struct Phase {
  std::vector<double> step_ms;
  std::vector<std::size_t> window;  // second of the phase each step ended in
  std::vector<double> losses;
  double cpu_s = 0.0;
};

/// Trains in calls of kStepsPerCall steps until `seconds` have passed.
/// Sample indices continue from `cursor` so no sample repeats.
Phase run_phase(Setup& setup, double seconds, std::int64_t& cursor) {
  Phase phase;
  std::int64_t last = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns();
  setup.trainer->set_step_hook([&](std::int64_t, double loss) {
    const std::int64_t now = now_ns();
    phase.step_ms.push_back(static_cast<double>(now - last) * 1e-6);
    phase.window.push_back(window_of(start, now));
    phase.losses.push_back(loss);
    last = now;
  });
  while (seconds_since(start) < seconds) {
    std::vector<std::int64_t> indices;
    for (std::int64_t i = 0; i < kStepsPerCall * kBatch; ++i) {
      indices.push_back(cursor++);
    }
    last = now_ns();
    setup.trainer->train_epoch(*setup.dataset, indices);
  }
  phase.cpu_s = cpu_seconds() - cpu0;
  setup.trainer->set_step_hook(nullptr);
  return phase;
}

std::uint32_t parameter_crc(train::TilesTrainer& trainer) {
  std::vector<std::uint8_t> bytes;
  for (const autograd::ParamPtr& p : trainer.replica(0).parameters()) {
    const auto data = p->value.data();
    const auto* raw = reinterpret_cast<const std::uint8_t*>(data.data());
    bytes.insert(bytes.end(), raw, raw + data.size() * sizeof(float));
  }
  return crc32(bytes.data(), bytes.size());
}

/// The pinned reference: two steps on a fixed dataset seed.
bool check_pins(const Options& options, Result& result) {
  Setup setup = build_setup(kPinDatasetSeed);
  double final_loss = 0.0;
  setup.trainer->set_step_hook(
      [&](std::int64_t, double loss) { final_loss = loss; });
  setup.trainer->train_epoch(*setup.dataset, {0, 1, 2, 3});
  std::uint64_t loss_bits = 0;
  std::memcpy(&loss_bits, &final_loss, sizeof(loss_bits));
  std::uint32_t crc = parameter_crc(*setup.trainer);
  if (options.corrupt) crc ^= 1u;
  const bool match = options.have_pins && loss_bits == options.pin_loss_bits &&
                     crc == options.pin_crc;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "reference run: loss %.17g --pin-loss %016llx --pin-crc "
                "%08x (%s)",
                final_loss, static_cast<unsigned long long>(loss_bits), crc,
                match ? "matches pins"
                      : (options.have_pins ? "MISMATCH" : "no pins given"));
  result.notes.push_back(buf);
  return match;
}

}  // namespace

Result run_train_tiles(const Options& options) {
  Result result;
  const int setup_reps = options.tiny || options.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    setup = Setup{};
    const std::int64_t t0 = rep == 0 ? process_start_ns() : now_ns();
    setup = build_setup(options.seed);
    setup_s.push_back(seconds_since(t0));
  }

  // The first steps fill the dataset and FFT plan caches and the allocator.
  std::int64_t cursor = 0;
  if (!options.tiny) (void)run_phase(setup, kWarmupSeconds, cursor);
  std::vector<Phase> phases;
  if (!options.trace) {
    phases.push_back(run_phase(setup, options.seconds, cursor));
  } else {
    const double half = options.seconds / 2.0;
    phases.push_back(run_phase(setup, half, cursor));
    begin_trace();
    phases.push_back(run_phase(setup, half, cursor));
    const std::int64_t dropped = end_trace();
    if (dropped > 0) {
      result.notes.push_back("trace dropped " + std::to_string(dropped) +
                             " spans");
    }
  }
  const Phase& timed = phases.back();

  std::int64_t bad_steps = 0;
  for (const double loss : timed.losses) {
    if (!std::isfinite(loss)) ++bad_steps;
  }
  const bool in_sync = setup.trainer->replica_divergence() == 0.0f;
  const bool pins_ok = check_pins(options, result);
  result.correct = bad_steps == 0 && in_sync && pins_ok;
  const auto steps = static_cast<std::int64_t>(timed.step_ms.size());
  result.attempted = steps;
  result.failed = bad_steps + (in_sync ? 0 : 1) + (pins_ok ? 0 : 1);
  double wall_ms = 0.0;
  for (const double ms : timed.step_ms) wall_ms += ms;
  result.notes.push_back(std::to_string(steps) + " steps, " +
                         std::to_string(bad_steps) + " non-finite losses, " +
                         (in_sync ? "replicas in sync" : "REPLICAS DIVERGED"));

  if (!options.trace) {
    add_end_to_end(
        result, median(setup_s),
        steady_windows(timed.step_ms, timed.window),
        /*pool=*/true,
        {"training samples", static_cast<double>(kBatch),
         steps > 0 ? static_cast<double>(steps - bad_steps) /
                         static_cast<double>(steps)
                   : 0.0},
        timed.cpu_s, steps);
    return result;
  }

  Metrics& m = result.metrics;
  SpanSummary spans;
  spans.capture();
  const double p50_untraced = median(phases.front().step_ms);
  m.set("obs.overhead_share",
        (median(timed.step_ms) - p50_untraced) / p50_untraced, "share");
  const double per_step = 1.0 / static_cast<double>(std::max<std::int64_t>(1, steps));
  m.set("train.forward_ms", spans.total_ms("train/forward") * per_step, "ms");
  m.set("train.backward_ms", spans.total_ms("train/backward") * per_step, "ms");
  m.set("train.optimizer_ms", spans.total_ms("train/optimizer") * per_step,
        "ms");
  std::vector<double> sample_ms;
  for (const std::int64_t ns : spans.durations("train/data")) {
    sample_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  m.set("data.sample_ms", median(sample_ms), "ms");
  m.set("data.step_share", spans.total_ms("train/data") / wall_ms, "share");
  auto hit_share = [](std::int64_t hits, std::int64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  m.set("data.cache_hit_share",
        hit_share(counter_value("data.topo_cache_hits") +
                      counter_value("data.grf_filter_cache_hits"),
                  counter_value("data.topo_cache_misses") +
                      counter_value("data.grf_filter_cache_misses")),
        "share");
  m.set("fft.plan_cache_hit_share",
        hit_share(counter_value("fft.plan_cache_hits"),
                  counter_value("fft.plan_cache_misses")),
        "share");
  summarize_kernels(m, spans, wall_ms, train_threads());

  // The checkpoint write path, once, after the timed phase.
  const std::string path = options.scratch_dir + "/perfbench_state.o2ck";
  begin_trace();
  const std::int64_t t0 = now_ns();
  setup.trainer->save_state(path);
  const double save_ms = seconds_since(t0) * 1e3;
  end_trace();
  m.set("train.checkpoint_save_ms", save_ms, "ms");
  m.set("checkpoint.bytes",
        static_cast<double>(counter_value("checkpoint.bytes_written")),
        "bytes");
  std::remove(path.c_str());

  probe_dispatch(m, options);
  setup = Setup{};
  probe_graph(m, options);
  probe_host(m, options);
  return result;
}

}  // namespace orbit2::perfbench
