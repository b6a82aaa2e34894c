// orbit2 benchmark harness: one process runs one named workload.
//
//   orbit2_perfbench --workload serve_poisson|field_tiled|train_tiles
//                    --seed N --seconds S --trace 0|1
//                    [--rate-hz R] [--pin-loss 0xBITS --pin-crc 0xCRC]
//                    [--tiny] [--corrupt-output] [--rev TEXT]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics of a traced run instead. Every
// metric goes to stderr as a table; stdout carries a host/build facts line
// and, last, one JSON result object. A failed output check makes the exit
// code 1; a serve run whose load generator fell behind schedule is invalid:
// exit code 3 and no result line.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/args.hpp"
#include "core/kernels.hpp"
#include "core/simd/simd.hpp"
#include "harness.hpp"

namespace orbit2::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"ok_share", "share"},
    {"cpu_ms_per_unit", "ms"},
    {"peak_rss_mb", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"serve.submit_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.batch_ms_per_req.b1", "ms"},
    {"serve.batch_ms_per_req.b2", "ms"},
    {"serve.batch_ms_per_req.b4", "ms"},
    {"serve.batch_ms_per_req.b8", "ms"},
    {"serve.eager_batch_share", "share"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"graph.capture_ms.16x16", "ms"},
    {"graph.capture_ms.16x32", "ms"},
    {"graph.capture_ms.20x36", "ms"},
    {"graph.replay_ms.16x16", "ms"},
    {"graph.replay_ms.16x32", "ms"},
    {"graph.replay_ms.20x36", "ms"},
    {"graph.allocs_per_call.16x16", "count"},
    {"graph.allocs_per_call.16x32", "count"},
    {"graph.allocs_per_call.20x36", "count"},
    {"graph.op_share.matmul", "share"},
    {"graph.op_share.mhsa", "share"},
    {"graph.op_share.conv2d", "share"},
    {"graph.op_share.elementwise", "share"},
    {"graph.op_share.layernorm", "share"},
    {"graph.op_share.resize", "share"},
    {"graph.op_share.other", "share"},
    {"kernels.gemm_gflops", "GFLOP/s"},
    {"attention.gflops", "GFLOP/s"},
    {"tensor.conv2d_gflops", "GFLOP/s"},
    {"kernels.gemm_share", "share"},
    {"attention.share", "share"},
    {"tensor.conv2d_share", "share"},
    {"kernels.dispatch_us.n2", "us"},
    {"kernels.dispatch_us.n4", "us"},
    {"host.gemm_peak_gflops", "GFLOP/s"},
    {"host.stream_gbps", "GB/s"},
    {"tiles.tile_ms", "ms"},
    {"tiles.imbalance", "ratio"},
    {"tiles.parallel_efficiency", "share"},
    {"tiles.extract_ms", "ms"},
    {"tiles.stitch_ms", "ms"},
    {"tiles.speedup_t4_over_t1", "ratio"},
    {"data.sample_ms", "ms"},
    {"data.step_share", "share"},
    {"data.cache_hit_share", "share"},
    {"fft.plan_cache_hit_share", "share"},
    {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.optimizer_ms", "ms"},
    {"train.checkpoint_save_ms", "ms"},
    {"checkpoint.bytes", "bytes"},
    {"obs.overhead_share", "share"},
    {"loadgen.late_p99_ms", "ms"},
};

std::uint64_t parse_hex(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 16);
  if (text.empty() || end == nullptr || *end != '\0') {
    throw std::runtime_error(std::string("malformed ") + flag + " '" + text +
                             "'");
  }
  return value;
}

Options parse_options(const ArgParser& args) {
  Options options;
  options.workload = args.get_string("--workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("--seed", 1));
  options.seconds = args.get_double("--seconds", 10.0);
  options.trace = args.get_int("--trace", 0) != 0;
  options.tiny = args.has("--tiny");
  options.corrupt = args.has("--corrupt-output");
  options.rate_hz = args.get_double("--rate-hz", 0.0);
  options.scratch_dir = args.get_string("--scratch-dir", ".");
  const std::string pin_loss = args.get_string("--pin-loss", "");
  const std::string pin_crc = args.get_string("--pin-crc", "");
  if (!pin_loss.empty() || !pin_crc.empty()) {
    options.pin_loss_bits = parse_hex(pin_loss, "--pin-loss");
    options.pin_crc =
        static_cast<std::uint32_t>(parse_hex(pin_crc, "--pin-crc"));
    options.have_pins = true;
  }
  if (!(options.seconds > 0.0)) {
    throw std::runtime_error("--seconds must be positive");
  }
  return options;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace
}  // namespace orbit2::perfbench

int main(int argc, char** argv) {
  using namespace orbit2;
  using namespace orbit2::perfbench;
  mark_process_start();

  Options options;
  std::string rev;
  try {
    const ArgParser args(argc, argv);
    options = parse_options(args);
    rev = args.get_string("--rev", "unknown");
    const std::vector<std::string> unused = args.unused_flags();
    if (!unused.empty() || !args.subcommand().empty()) {
      std::fprintf(stderr, "orbit2_perfbench: unknown argument '%s'\n",
                   unused.empty() ? args.subcommand().c_str()
                                  : unused.front().c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbit2_perfbench: %s\n", error.what());
    return 2;
  }

  Result result;
  try {
    if (options.workload == "serve_poisson") {
      result = run_serve_poisson(options);
    } else if (options.workload == "field_tiled") {
      result = run_field_tiled(options);
    } else if (options.workload == "train_tiles") {
      result = run_train_tiles(options);
    } else {
      std::fprintf(stderr,
                   "orbit2_perfbench: unknown workload '%s' (serve_poisson, "
                   "field_tiled, train_tiles)\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbit2_perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  note: %s\n", note.c_str());
  }
  if (!result.valid) {
    std::fprintf(stderr, "orbit2_perfbench: run invalid, nothing reported\n");
    return 3;
  }

  // The reported set is exactly the declared list for this mode. Layer
  // metrics a workload does not exercise read 0.
  const MetricSpec* specs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = options.trace
                                ? sizeof(kPerLayer) / sizeof(kPerLayer[0])
                                : sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);
  std::set<std::string> declared;
  for (std::size_t i = 0; i < count; ++i) declared.insert(specs[i].name);
  for (const auto& [name, value] : result.metrics.items()) {
    if (declared.count(name) == 0) {
      std::fprintf(stderr, "orbit2_perfbench: undeclared metric '%s'\n",
                   name.c_str());
      return 1;
    }
  }

  std::string metrics_json;
  std::fprintf(stderr, "%-32s %16s  %s\n", "metric", "value", "unit");
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const auto& [name, entry] : result.metrics.items()) {
      if (name == specs[i].name) value = entry.first;
    }
    std::fprintf(stderr, "%-32s %16.6g  %s%s\n", specs[i].name, value,
                 specs[i].unit,
                 result.metrics.has(specs[i].name) ? "" : "  (not exercised)");
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += std::string("\"") + specs[i].name + "\": {\"value\": " +
                    json_number(value) + ", \"unit\": \"" + specs[i].unit +
                    "\"}";
  }

  std::printf(
      "{\"host\": {\"nproc\": %u, \"kernel_threads\": %zu, \"isa\": \"%s\", "
      "\"build_type\": \"%s\", \"orbit2_obs\": \"%s\", \"rev\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"steal_share\": %.4f}}\n",
      std::thread::hardware_concurrency(), kernels::max_threads(),
      simd::isa_name(simd::active_isa()), PERFBENCH_BUILD_TYPE,
#if defined(ORBIT2_OBS_DISABLED)
      "OFF",
#else
      "ON",
#endif
      rev.c_str(), options.workload.c_str(), options.seed,
      options.trace ? 1 : 0, steal_share_since_start());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics_json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
