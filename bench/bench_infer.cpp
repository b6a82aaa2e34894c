// Compiled-inference benchmark: eager (tape-free) forward vs compiled plan
// replay for Reslim, Reslim with adaptive compression (ratio 2) and the ViT
// baseline, across thread counts, with per-call heap-allocation counts
// (0 for replay, except that a compressed replay allocates in its partition
// step: Canny plus the quad-tree search) and plan statistics (fusion +
// arena aliasing). Each model is timed on its own cached plan.
//
// Usage: bench_infer [--reps N] [--quick] [--trace PATH]
//   --reps N     best-of-N timing per case (default 5)
//   --quick      smaller grid (CI smoke runs)
//   --trace PATH enable obs tracing and write Chrome trace JSON to PATH
//
// Human-readable tables go to stderr; stdout carries a single JSON array so
// CI can redirect and schema-check it. A row whose replay differs from the
// eager forward (memcmp, on the bench input and on an all-zero input run
// after it) prints DIVERGED and makes the exit code 1.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.hpp"
#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "graph/executor.hpp"
#include "graph/plan.hpp"
#include "model/reslim.hpp"
#include "model/vit_baseline.hpp"

#include "bench/common.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::bench {
namespace {

struct Record {
  std::string model;
  std::string path;  // "eager" | "compiled"
  std::size_t threads = 0;
  double seconds = 0.0;
  std::int64_t allocs_per_call = 0;
  double checksum = 0.0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tensor_checksum(const Tensor& t) {
  double acc = 0.0;
  for (const float v : t.data()) acc += static_cast<double>(v);
  return acc;
}

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.011f * static_cast<float>(i));
  }
  return input;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    best = std::min(best, t1 - t0);
    if (t1 - t0 > 1.0) break;
  }
  return best;
}

template <typename Fn>
std::int64_t allocs_of(Fn&& fn) {
  if (!debug::alloc_counting_installed()) return -1;
  fn();  // warm any lazy scratch before counting
  debug::AllocCountScope scope;
  fn();
  return scope.delta();
}

/// Benchmarks one model on one input across thread counts; appends records.
/// Returns false when a replay's bits differ from the eager forward's.
bool bench_model(const char* name, const model::Downscaler& model,
                 const Tensor& input, int reps, std::vector<Record>& records) {
  const std::shared_ptr<const graph::Plan> plan =
      model.compiled_for(input)->plan();
  std::fprintf(stderr,
               "%s plan: %lld ops (from %lld eager), arena %.2f MiB "
               "(unaliased %.2f MiB, %.1f%% saved)\n",
               name, static_cast<long long>(plan->num_ops()),
               static_cast<long long>(plan->raw_op_count),
               static_cast<double>(plan->arena_floats()) * 4.0 / 1048576.0,
               static_cast<double>(plan->unaliased_floats()) * 4.0 / 1048576.0,
               100.0 *
                   (1.0 - static_cast<double>(plan->arena_floats()) /
                              static_cast<double>(plan->unaliased_floats())));

  bool all_match = true;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    kernels::set_max_threads(threads);
    graph::Executor executor(plan);
    executor.run(input);  // warmup: thread-local kernel scratch

    Record eager;
    eager.model = name;
    eager.path = "eager";
    eager.threads = threads;
    Tensor eager_out;
    {
      autograd::InferenceModeScope no_tape;
      eager.seconds = best_of(reps, [&] { (void)model.downscale(input); });
      eager_out = model.downscale(input).value();
      eager.checksum = tensor_checksum(eager_out);
      eager.allocs_per_call =
          allocs_of([&] { (void)model.downscale(input).value(); });
    }
    records.push_back(eager);

    Record compiled;
    compiled.model = name;
    compiled.path = "compiled";
    compiled.threads = threads;
    compiled.seconds = best_of(reps, [&] { executor.run(input); });
    compiled.checksum = tensor_checksum(executor.run(input));
    compiled.allocs_per_call = allocs_of([&] { executor.run(input); });
    records.push_back(compiled);

    // Bitwise check on the bench input, then on an all-zero input replayed
    // right after it. Under compression the zero input has fewer leaves
    // (58 of 64 at --quick, where the bench input fills all 64), so rows the
    // first replay left in the padded trunk would show in the second.
    const Tensor zeros = Tensor::zeros(input.shape());
    Tensor zeros_eager;
    {
      autograd::InferenceModeScope no_tape;
      zeros_eager = model.downscale(zeros).value();
    }
    const bool match = same_bits(executor.run(input), eager_out) &&
                       same_bits(executor.run(zeros), zeros_eager);
    all_match = all_match && match;

    std::fprintf(stderr,
                 "%-14s t=%zu  eager %8.3f ms (%6lld allocs)   compiled "
                 "%8.3f ms (%lld allocs)   speedup %.2fx   bitwise %s\n",
                 name, threads, eager.seconds * 1e3,
                 static_cast<long long>(eager.allocs_per_call),
                 compiled.seconds * 1e3,
                 static_cast<long long>(compiled.allocs_per_call),
                 eager.seconds / compiled.seconds,
                 match ? "ok" : "DIVERGED");
  }
  kernels::set_max_threads(0);
  return all_match;
}

void emit_json(const std::vector<Record>& records) {
  std::printf("[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::printf(
        "  {\"model\": \"%s\", \"path\": \"%s\", \"threads\": %zu, "
        "\"seconds\": %.6f, \"allocs_per_call\": %lld, \"checksum\": %.6g}%s\n",
        r.model.c_str(), r.path.c_str(), r.threads, r.seconds,
        static_cast<long long>(r.allocs_per_call), r.checksum,
        i + 1 < records.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace orbit2::bench

int main(int argc, char** argv) {
  using namespace orbit2;
  int reps = 5;
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--reps N] [--quick] [--trace PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  // Tracing is enabled only around the timed section: obs counters/spans
  // allocate on first touch, which would pollute the alloc-per-call numbers
  // if left on during the counting passes. Counting happens first.
  const std::int64_t h = quick ? 16 : 32;
  const std::int64_t w = quick ? 32 : 64;
  const std::int64_t in_channels = 8, out_channels = 2;

  std::fprintf(stderr, "bench_infer: LR grid %lldx%lld, %lld->%lld channels\n",
               static_cast<long long>(h), static_cast<long long>(w),
               static_cast<long long>(in_channels),
               static_cast<long long>(out_channels));

  const Tensor input = bench::make_input(in_channels, h, w);
  std::vector<bench::Record> records;
  bool all_match = true;

  {
    Rng rng(42);
    model::ReslimModel reslim(
        bench::bench_model_config(0, in_channels, out_channels), rng);
    all_match &= bench::bench_model("reslim", reslim, input, reps, records);
  }
  {
    Rng rng(42);
    model::ModelConfig config =
        bench::bench_model_config(0, in_channels, out_channels);
    config.compression_ratio = 2.0f;
    model::ReslimModel reslim(config, rng);
    all_match &= bench::bench_model("reslim_c2", reslim, input, reps, records);
  }
  {
    Rng rng(43);
    model::ModelConfig config =
        bench::bench_model_config(0, in_channels, out_channels);
    config.architecture = model::Architecture::kViTBaseline;
    model::ViTBaselineModel vit(config, rng);
    all_match &= bench::bench_model("vit_baseline", vit, input, reps, records);
  }

  if (!trace_path.empty()) {
    // One traced serve per model so the replay span structure lands in the
    // artifact (counters include graph/replay and graph/alloc_bytes).
    obs::set_enabled(true);
    Rng rng(44);
    model::ReslimModel reslim(
        bench::bench_model_config(0, in_channels, out_channels), rng);
    (void)reslim.predict_field(input);
    (void)reslim.predict_field(input);
    obs::write_chrome_trace(trace_path);
    obs::set_enabled(false);
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }

  bench::emit_json(records);
  if (!all_match) {
    std::fprintf(stderr,
                 "bench_infer: a compiled replay DIVERGED from eager\n");
    return 1;
  }
  return 0;
}
