// field_tiled: one closed-loop caller downscales 64x128 LR fields (8 -> 2
// channels, 256x512 HR) with tiled_apply over 4x4 tiles, halo 2; every tile
// goes through ReslimModel::predict_field, the body of TilesTrainer::predict.
//
// Why this workload: it runs tiles, graph replay and kernels under tile
// parallelism with no queue and no autograd, so a serve-only change should
// leave it unchanged.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "harness.hpp"
#include "model/reslim.hpp"
#include "tiles/tiles.hpp"

namespace orbit2::perfbench {
namespace {

constexpr std::int64_t kLrH = 64;
constexpr std::int64_t kLrW = 128;
constexpr std::int64_t kUpscale = 4;
constexpr std::size_t kFields = 4;  // distinct seeded inputs, cycled
// Fields 0, 64, 128, ... are kept and re-run at one kernel thread.
constexpr std::size_t kCheckEvery = 64;
const TileSpec kTiles{4, 4, 2};

std::size_t field_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<model::ReslimModel> build_model(const Tensor& warm_field) {
  kernels::set_max_threads(field_threads());  // restarts the kernel pool
  Rng rng(42);
  auto model = std::make_unique<model::ReslimModel>(
      bench::bench_model_config(0, 8, 2), rng);
  // Captures the four padded tile shapes and pools their executors.
  (void)tiled_apply(warm_field, kTiles, kUpscale,
                    [&](std::size_t, const Tensor& padded) {
                      return model->predict_field(padded);
                    });
  return model;
}

/// One field. When `tile_ms` is given, each tile's predict_field time lands
/// in its slot (tiles write disjoint slots).
Tensor downscale_field(const model::ReslimModel& model, const Tensor& field,
                       std::vector<double>* tile_ms) {
  return tiled_apply(field, kTiles, kUpscale,
                     [&](std::size_t tile, const Tensor& padded) {
                       const std::int64_t t0 = now_ns();
                       Tensor out = model.predict_field(padded);
                       if (tile_ms != nullptr) {
                         (*tile_ms)[tile] = seconds_since(t0) * 1e3;
                       }
                       return out;
                     });
}

struct Kept {
  std::size_t field = 0;
  std::uint32_t crc = 0;  // CRC32 of the stitched output bytes
};

struct Phase {
  std::vector<double> latency_ms;
  std::vector<std::size_t> window;  // second of the phase each field ended in
  std::vector<std::vector<double>> tile_ms;  // per field, when timed
  std::vector<Kept> kept;
  double cpu_s = 0.0;
  std::int64_t thrown = 0;
};

/// Downscales fields until `seconds` pass. With `corrupt`, the first kept
/// output is altered before its CRC is taken.
Phase run_phase(const model::ReslimModel& model,
                const std::vector<Tensor>& fields, double seconds,
                bool time_tiles, bool corrupt) {
  Phase phase;
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
    std::vector<double> tiles(static_cast<std::size_t>(kTiles.tile_count()));
    const std::size_t field = i % fields.size();
    const std::int64_t t0 = now_ns();
    try {
      Tensor out = downscale_field(model, fields[field],
                                   time_tiles ? &tiles : nullptr);
      phase.latency_ms.push_back(seconds_since(t0) * 1e3);
      phase.window.push_back(window_of(start, now_ns()));
      if (i % kCheckEvery == 0) {
        if (corrupt && phase.kept.empty()) {
          out.data()[0] = std::nextafter(out.data()[0], 1e30f);
        }
        phase.kept.push_back({field, output_crc(out)});
      }
      if (time_tiles) phase.tile_ms.push_back(std::move(tiles));
    } catch (const std::exception& error) {
      ++phase.thrown;
      std::fprintf(stderr, "field %zu threw: %s\n", i, error.what());
    }
  }
  phase.cpu_s = cpu_seconds() - cpu0;
  return phase;
}

/// Stitched bytes must equal the same call at one kernel thread (compared
/// by CRC32). Returns the number of mismatches.
std::int64_t check_outputs(const model::ReslimModel& model,
                           const std::vector<Tensor>& fields,
                           const std::vector<Kept>& kept) {
  const ThreadsScope one_thread(1);
  std::int64_t wrong = 0;
  for (const Kept& k : kept) {
    const Tensor reference = downscale_field(model, fields[k.field], nullptr);
    if (output_crc(reference) != k.crc) ++wrong;
  }
  return wrong;
}

double hr_megapixels() {
  return static_cast<double>(kLrH * kUpscale * kLrW * kUpscale) * 1e-6;
}

/// tiles.extract_ms / stitch_ms: the harness's own calls to extract_tile
/// (all tiles of a field) and stitch_tiles, per field.
void probe_extract_stitch(Metrics& metrics, const model::ReslimModel& model,
                          const std::vector<Tensor>& fields,
                          const Options& options) {
  const int reps = options.tiny ? 2 : 12;
  std::vector<double> extract_ms, stitch_ms;
  for (int rep = 0; rep < reps; ++rep) {
    const Tensor& field = fields[static_cast<std::size_t>(rep) % fields.size()];
    const std::vector<TileRegion> regions =
        partition_tiles(kLrH, kLrW, kTiles);
    std::vector<Tensor> padded;
    const std::int64_t t0 = now_ns();
    for (const TileRegion& region : regions) {
      padded.push_back(extract_tile(field, region));
    }
    extract_ms.push_back(seconds_since(t0) * 1e3);
    std::vector<Tensor> outputs;
    for (const Tensor& tile : padded) outputs.push_back(model.predict_field(tile));
    const std::int64_t t1 = now_ns();
    (void)stitch_tiles(outputs, regions, kLrH, kLrW, kUpscale);
    stitch_ms.push_back(seconds_since(t1) * 1e3);
  }
  metrics.set("tiles.extract_ms", median(extract_ms), "ms");
  metrics.set("tiles.stitch_ms", median(stitch_ms), "ms");
}

/// tiles.speedup_t4_over_t1: median field latency at one kernel thread over
/// the median at four.
void probe_speedup(Metrics& metrics, const model::ReslimModel& model,
                   const std::vector<Tensor>& fields, const Options& options) {
  const int reps = options.tiny ? 1 : 5;
  auto median_at = [&](std::size_t t) {
    const ThreadsScope threads(t);
    std::vector<double> ms;
    for (int rep = 0; rep < reps; ++rep) {
      const std::int64_t t0 = now_ns();
      (void)downscale_field(model, fields[static_cast<std::size_t>(rep) %
                                          fields.size()],
                            nullptr);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    return median(ms);
  };
  const double t1 = median_at(1);
  const double t4 = median_at(4);
  metrics.set("tiles.speedup_t4_over_t1", t1 / t4, "ratio");
}

}  // namespace

Result run_field_tiled(const Options& options) {
  Result result;
  std::vector<Tensor> fields;
  for (std::size_t k = 0; k < kFields; ++k) {
    Rng rng(mix_seed(options.seed, k));
    fields.push_back(
        Tensor::uniform(Shape{8, kLrH, kLrW}, rng, -1.0f, 1.0f));
  }

  const int setup_reps = options.tiny || options.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<model::ReslimModel> model;
  for (int rep = 0; rep < setup_reps; ++rep) {
    model.reset();
    const std::int64_t t0 = rep == 0 ? process_start_ns() : now_ns();
    model = build_model(fields.front());
    setup_s.push_back(seconds_since(t0));
  }

  if (!options.tiny) {
    (void)run_phase(*model, fields, kWarmupSeconds, false, false);
  }
  std::vector<Phase> phases;
  if (!options.trace) {
    phases.push_back(
        run_phase(*model, fields, options.seconds, false, options.corrupt));
  } else {
    const double half = options.seconds / 2.0;
    phases.push_back(run_phase(*model, fields, half, false, options.corrupt));
    begin_trace();
    phases.push_back(run_phase(*model, fields, half, true, false));
    const std::int64_t dropped = end_trace();
    if (dropped > 0) {
      result.notes.push_back("trace dropped " + std::to_string(dropped) +
                             " spans");
    }
  }
  const Phase& timed = phases.back();

  std::int64_t wrong = 0;
  std::size_t checked = 0;
  for (const Phase& phase : phases) {
    checked += phase.kept.size();
    wrong += check_outputs(*model, fields, phase.kept);
  }
  result.correct = wrong == 0;
  const auto units = static_cast<std::int64_t>(timed.latency_ms.size());
  result.attempted = units + timed.thrown;
  result.failed = timed.thrown + wrong;
  double wall_ms = 0.0;
  for (const double ms : timed.latency_ms) wall_ms += ms;
  result.notes.push_back(
      std::to_string(units) + " fields, " + std::to_string(timed.thrown) +
      " thrown, " + std::to_string(wrong) + " wrong of " +
      std::to_string(checked) + " checked at one kernel thread");

  if (!options.trace) {
    add_end_to_end(
        result, median(setup_s),
        steady_windows(timed.latency_ms, timed.window),
        /*pool=*/true,
        {"HR megapixels", hr_megapixels(),
         units > 0 ? static_cast<double>(units - wrong) /
                         static_cast<double>(units)
                   : 0.0},
        timed.cpu_s, units);
    return result;
  }

  Metrics& m = result.metrics;
  SpanSummary spans;
  spans.capture();
  const double p50_untraced = median(phases.front().latency_ms);
  m.set("obs.overhead_share",
        (median(timed.latency_ms) - p50_untraced) / p50_untraced, "share");
  const std::size_t threads = field_threads();
  std::vector<double> all_tiles, imbalance, efficiency;
  for (std::size_t f = 0; f < timed.tile_ms.size(); ++f) {
    const std::vector<double>& tiles = timed.tile_ms[f];
    all_tiles.insert(all_tiles.end(), tiles.begin(), tiles.end());
    const double tile_mean = mean(tiles);
    imbalance.push_back(*std::max_element(tiles.begin(), tiles.end()) /
                        tile_mean);
    efficiency.push_back(tile_mean * static_cast<double>(tiles.size()) /
                         (timed.latency_ms[f] * static_cast<double>(threads)));
  }
  m.set("tiles.tile_ms", median(all_tiles), "ms");
  m.set("tiles.imbalance", mean(imbalance), "ratio");
  m.set("tiles.parallel_efficiency", mean(efficiency), "share");
  summarize_kernels(m, spans, wall_ms, threads);

  probe_extract_stitch(m, *model, fields, options);
  probe_speedup(m, *model, fields, options);
  probe_dispatch(m, options);
  model.reset();
  probe_graph(m, options);
  probe_host(m, options);
  probe_serve(m, options);
  return result;
}

}  // namespace orbit2::perfbench
