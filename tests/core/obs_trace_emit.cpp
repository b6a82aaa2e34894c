// Fixture helper for the trace-validation ctest chain: runs a small traced
// workload exercising every event kind the exporter emits (wall spans with
// and without args, nested depths, simulated-clock spans, counters, gauges,
// a tiny Reslim forward and backward whose tape node spans feed the
// summarizer's autograd ledger, and one synthetic data sample whose nested
// spans feed its sample-build ledger) and writes the Chrome trace JSON to
// argv[1].
// A separate ctest then validates that file with tools/orbit2_trace.py,
// proving the emitted JSON parses with a real JSON parser — not just the
// C++-side substring checks.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "autograd/ops.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "model/reslim.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.json\n", argv[0]);
    return 2;
  }
  namespace obs = orbit2::obs;
  namespace kernels = orbit2::kernels;

  obs::set_enabled(true);
  if (!obs::enabled()) {
    // ORBIT2_OBS=OFF build: still write a (valid, empty) trace.
    obs::write_chrome_trace(argv[1]);
    return 0;
  }

  {
    ORBIT2_OBS_SPAN("emit_workload", "test");
    const std::int64_t m = 128, n = 128, k = 128;
    std::vector<float> a(static_cast<std::size_t>(m * k), 0.5f);
    std::vector<float> b(static_cast<std::size_t>(k * n), 2.0f);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, m, n, k, a.data(),
                  b.data(), c.data(), false);
    kernels::parallel_for(256, 8, [](std::int64_t b0, std::int64_t b1) {
      ORBIT2_OBS_COUNT("emit.items", b1 - b0);
    });
  }
  {
    orbit2::model::ModelConfig config = orbit2::model::preset_tiny();
    config.in_channels = 2;
    config.out_channels = 2;
    config.upscale = 2;
    orbit2::Rng rng(5);
    const orbit2::model::ReslimModel model(config, rng);
    const orbit2::Tensor input =
        orbit2::Tensor::randn(orbit2::Shape{2, 8, 8}, rng);
    orbit2::autograd::backward(orbit2::autograd::mean(model.forward(input)));
  }
  {
    orbit2::data::DatasetConfig config;
    config.hr_h = 32;
    config.hr_w = 64;
    const orbit2::data::SyntheticDataset dataset(config);
    static_cast<void>(dataset.sample(0));
  }
  obs::gauge("emit.gauge").set(0.75);
  obs::histogram("emit.hist").observe(1.0);
  const double t0 = obs::sim_advance(2.0);
  obs::sim_span("emit_sim_step", "sim", t0, 2.0);

  obs::set_enabled(false);
  obs::write_chrome_trace(argv[1]);
  return 0;
}
