// Per-layer probes that every traced run reports: graph capture/replay on
// the three plan shapes the workloads use, kernel dispatch cost, the host's
// roofline denominators, and the kernel rates derived from a traced phase.
// The probes run with tracing off and time the harness's own calls.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "core/debug_check.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "graph/ir.hpp"
#include "harness.hpp"
#include "model/reslim.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::perfbench {
namespace {

struct PlanShape {
  const char* tag;
  std::int64_t h;
  std::int64_t w;
};

// 16x16 and 16x32 are serve_poisson's request grids; 20x36 is an interior
// field_tiled tile (16x32 core plus a halo of 2 on every side).
constexpr PlanShape kPlanShapes[] = {{"16x16", 16, 16},
                                     {"16x32", 16, 32},
                                     {"20x36", 20, 36}};

}  // namespace

void probe_graph(Metrics& metrics, const Options& options) {
  const int capture_reps = options.tiny ? 1 : 3;
  const int replay_reps = options.tiny ? 3 : 30;
  std::vector<Tensor> inputs;
  for (const PlanShape& shape : kPlanShapes) {
    Rng rng(options.seed ^ 0x9a9a);
    inputs.push_back(Tensor::uniform(Shape{8, shape.h, shape.w}, rng, -1.0f,
                                     1.0f));
  }

  // Capture: a fresh model each repetition, so every shape misses the
  // model's plan cache and pays capture + plan compilation.
  std::vector<std::vector<double>> capture_ms(std::size(kPlanShapes));
  std::unique_ptr<model::ReslimModel> model;
  for (int rep = 0; rep < capture_reps; ++rep) {
    Rng rng(42);
    model = std::make_unique<model::ReslimModel>(
        bench::bench_model_config(0, 8, 2), rng);
    for (std::size_t s = 0; s < std::size(kPlanShapes); ++s) {
      const std::int64_t t0 = now_ns();
      (void)model->compiled_for(inputs[s]);
      capture_ms[s].push_back(seconds_since(t0) * 1e3);
    }
  }

  // Replay and allocations on one kernel thread: the serial replay is the
  // zero-allocation contract's reference point.
  const ThreadsScope one_thread(1);
  for (std::size_t s = 0; s < std::size(kPlanShapes); ++s) {
    const std::string tag = kPlanShapes[s].tag;
    const std::shared_ptr<const graph::CompiledShape> compiled =
        model->compiled_for(inputs[s]);
    metrics.set("graph.capture_ms." + tag, median(capture_ms[s]), "ms");
    if (compiled == nullptr || !compiled->valid()) continue;
    Tensor out;
    compiled->run_into(inputs[s], out);  // sizes the output, warms scratch
    std::vector<double> replay_ms;
    for (int rep = 0; rep < replay_reps; ++rep) {
      const std::int64_t t0 = now_ns();
      compiled->run_into(inputs[s], out);
      replay_ms.push_back(seconds_since(t0) * 1e3);
    }
    metrics.set("graph.replay_ms." + tag, median(replay_ms), "ms");
    std::int64_t allocs = -1;
    if (debug::alloc_counting_installed()) {
      debug::AllocCountScope scope;
      compiled->run_into(inputs[s], out);
      allocs = scope.delta();
    }
    metrics.set("graph.allocs_per_call." + tag, static_cast<double>(allocs),
                "count");
  }
}

void probe_dispatch(Metrics& metrics, const Options& options) {
  const int calls = options.tiny ? 200 : 4000;
  for (const std::int64_t chunks : {2, 4}) {
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(calls));
    for (int i = 0; i < calls; ++i) {
      const std::int64_t t0 = now_ns();
      kernels::parallel_for(chunks, 1, [](std::int64_t, std::int64_t) {});
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    metrics.set("kernels.dispatch_us.n" + std::to_string(chunks), median(us),
                "us");
  }
}

void probe_host(Metrics& metrics, const Options& options) {
  const int reps = options.tiny ? 1 : 3;
  {
    const ThreadsScope one_thread(1);
    constexpr std::int64_t n = 512;
    Rng rng(7);
    const Tensor a = Tensor::uniform(Shape{n, n}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape{n, n}, rng, -1.0f, 1.0f);
    Tensor c(Shape{n, n});
    double best_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      const std::int64_t t0 = now_ns();
      kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, n, n, n,
                    a.data().data(), b.data().data(), c.data().data());
      best_s = std::min(best_s, seconds_since(t0));
    }
    metrics.set("host.gemm_peak_gflops",
                2.0 * static_cast<double>(n * n * n) / best_s * 1e-9,
                "GFLOP/s");
  }
  {
    // One-thread copy of a 128 MiB array: bytes read plus bytes written.
    const std::size_t floats = std::size_t{32} << 20;
    std::vector<float> src(floats, 1.0f);
    std::vector<float> dst(floats, 0.0f);
    double best_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      const std::int64_t t0 = now_ns();
      std::memcpy(dst.data(), src.data(), floats * sizeof(float));
      best_s = std::min(best_s, seconds_since(t0));
    }
    ORBIT2_REQUIRE(dst[floats - 1] == 1.0f, "stream probe copy is wrong");
    metrics.set("host.stream_gbps",
                2.0 * static_cast<double>(floats * sizeof(float)) / best_s *
                    1e-9,
                "GB/s");
  }
}

void summarize_kernels(Metrics& metrics, const SpanSummary& spans,
                       double unit_wall_ms, std::size_t threads) {
  double op_total = 0.0;
  for (const auto& [kind, ms] : spans.op_kind_ms()) op_total += ms;
  if (op_total > 0.0) {
    using graph::OpKind;
    auto kind_ms = [&](OpKind kind) {
      const auto it = spans.op_kind_ms().find(static_cast<std::int64_t>(kind));
      return it == spans.op_kind_ms().end() ? 0.0 : it->second;
    };
    const std::pair<const char*, OpKind> named[] = {
        {"matmul", OpKind::kMatmul},
        {"mhsa", OpKind::kMhsa},
        {"conv2d", OpKind::kConv2d},
        {"elementwise", OpKind::kElementwise},
        {"layernorm", OpKind::kLayerNorm},
        {"resize", OpKind::kResizeBilinear}};
    double named_ms = 0.0;
    for (const auto& [name, kind] : named) {
      named_ms += kind_ms(kind);
      metrics.set(std::string("graph.op_share.") + name,
                  kind_ms(kind) / op_total, "share");
    }
    metrics.set("graph.op_share.other", (op_total - named_ms) / op_total,
                "share");
  }

  // Shares are of the thread-time available to the units: span time summed
  // over threads / (unit wall time x kernel threads).
  const double capacity_ms =
      unit_wall_ms * static_cast<double>(std::max<std::size_t>(1, threads));
  struct Kernel {
    const char* rate;
    const char* share;
    const char* flops_counter;
    std::vector<const char*> span_names;
  };
  const Kernel kernels_list[] = {
      {"kernels.gemm_gflops", "kernels.gemm_share", "kernels.gemm_flops",
       {"gemm"}},
      {"attention.gflops", "attention.share", "attention.flops",
       {"attention_naive_forward", "attention_naive_backward",
        "attention_flash_forward", "attention_flash_backward"}},
      {"tensor.conv2d_gflops", "tensor.conv2d_share", "tensor.conv2d_flops",
       {"conv2d_forward"}},
  };
  for (const Kernel& kernel : kernels_list) {
    double ms = 0.0;
    for (const char* name : kernel.span_names) ms += spans.total_ms(name);
    if (ms <= 0.0) continue;
    metrics.set(kernel.rate,
                static_cast<double>(counter_value(kernel.flops_counter)) /
                    (ms * 1e6),
                "GFLOP/s");
    if (capacity_ms > 0.0) metrics.set(kernel.share, ms / capacity_ms, "share");
  }
}

}  // namespace orbit2::perfbench
