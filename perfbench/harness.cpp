#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "core/crc32.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"

namespace orbit2::perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

bool Metrics::has(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return true;
  }
  return false;
}

namespace {
std::int64_t g_process_start_ns = 0;

struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return ticks;
  char label[16] = {};
  unsigned long long value = 0;
  if (std::fscanf(file, "%15s", label) == 1) {
    for (int field = 0; field < 10 && std::fscanf(file, "%llu", &value) == 1;
         ++field) {
      ticks.total += static_cast<double>(value);
      if (field == 7) ticks.steal = static_cast<double>(value);
    }
  }
  std::fclose(file);
  return ticks;
}

CpuTicks g_start_ticks;
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void mark_process_start() {
  g_process_start_ns = now_ns();
  g_start_ticks = read_cpu_ticks();
}

double steal_share_since_start() {
  const CpuTicks now = read_cpu_ticks();
  const double total = now.total - g_start_ticks.total;
  if (now.total <= 0.0 || total <= 0.0) return -1.0;
  return (now.steal - g_start_ticks.steal) / total;
}

ThreadsScope::ThreadsScope(std::size_t threads)
    : saved_(kernels::max_threads()) {
  kernels::set_max_threads(threads);
}

ThreadsScope::~ThreadsScope() { kernels::set_max_threads(saved_); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
  return splitmix64(state);
}

std::int64_t process_start_ns() { return g_process_start_ns; }

std::uint32_t output_crc(const Tensor& tensor) {
  const Tensor::const_span data = tensor.data();
  return crc32(data.data(), data.size() * sizeof(float));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

std::size_t window_of(std::int64_t start_ns, std::int64_t t_ns) {
  return static_cast<std::size_t>(std::max<std::int64_t>(0, t_ns - start_ns) /
                                  1'000'000'000);
}

std::vector<std::vector<double>> steady_windows(
    const std::vector<double>& latency_ms,
    const std::vector<std::size_t>& window) {
  constexpr std::size_t kMinUnits = 3;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    if (windows.size() <= window[i]) windows.resize(window[i] + 1);
    windows[window[i]].push_back(latency_ms[i]);
  }
  std::size_t full = 0;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= kMinUnits) ++full;
  }
  // (median latency, window), fastest first.
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].size() >= (full > 0 ? kMinUnits : 1)) {
      order.push_back({median(windows[w]), w});
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<std::vector<double>> steady;
  for (std::size_t k = 0; k < (order.size() + 1) / 2; ++k) {
    steady.push_back(std::move(windows[order[k].second]));
  }
  return steady;
}

void add_end_to_end(Result& result, double setup_s,
                    const std::vector<std::vector<double>>& steady_ms,
                    bool pool, const Throughput& throughput, double cpu_s,
                    std::int64_t completed) {
  std::vector<double> all;
  for (const std::vector<double>& w : steady_ms) {
    all.insert(all.end(), w.begin(), w.end());
  }
  double rate = throughput.open_loop;
  if (rate <= 0.0) {
    double wall_ms = 0.0;
    for (const double ms : all) wall_ms += ms;
    rate = throughput.ok_share * static_cast<double>(all.size()) *
           throughput.unit_size / (wall_ms * 1e-3);
  }
  const std::vector<std::vector<double>> windows =
      pool ? std::vector<std::vector<double>>{all} : steady_ms;
  std::vector<double> p50s, tails, percentiles, samples;
  for (const std::vector<double>& window : windows) {
    if (window.size() <= 10 && windows.size() > 1) continue;
    const Tail tail = tail_of(window);
    p50s.push_back(median(window));
    tails.push_back(tail.value);
    percentiles.push_back(tail.percentile);
    samples.push_back(static_cast<double>(tail.samples));
  }
  Metrics& m = result.metrics;
  m.set("setup_s", setup_s, "s");
  m.set("latency_p50_ms", median(p50s), "ms");
  m.set("latency_tail_ms", median(tails), "ms");
  m.set("throughput_per_s", rate, "1/s");
  const double attempted =
      static_cast<double>(std::max<std::int64_t>(1, result.attempted));
  m.set("ok_share",
        static_cast<double>(result.attempted - result.failed) / attempted,
        "share");
  m.set("cpu_ms_per_unit",
        completed > 0 ? cpu_s * 1e3 / static_cast<double>(completed) : 0.0,
        "ms");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms is p%.3f (the 11th-largest sample) of %.0f "
                "samples, %s the %zu steadier one-second window(s); "
                "throughput_per_s counts %s; fail_share %.6f",
                median(percentiles), median(samples),
                pool ? "pooled over" : "median over", steady_ms.size(),
                throughput.unit_note,
                static_cast<double>(result.failed) / attempted);
  result.notes.push_back(buf);
}

void SpanSummary::capture() {
  durations_.clear();
  serve_batches_.clear();
  op_kind_ms_.clear();
  for (obs::SpanRecord& span : obs::snapshot_spans()) {
    if (span.simulated) continue;
    durations_[span.name].push_back(span.dur_ns);
    if (span.name == "graph/op") {
      op_kind_ms_[span.arg_value] += static_cast<double>(span.dur_ns) * 1e-6;
    } else if (span.name == "serve/batch") {
      serve_batches_.push_back(std::move(span));
    }
  }
}

const std::vector<std::int64_t>& SpanSummary::durations(
    const std::string& name) const {
  static const std::vector<std::int64_t> kEmpty;
  const auto it = durations_.find(name);
  return it == durations_.end() ? kEmpty : it->second;
}

double SpanSummary::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const std::int64_t d : durations(name)) {
    total += static_cast<double>(d) * 1e-6;
  }
  return total;
}

std::int64_t counter_value(const char* name) {
  for (const auto& [counter, value] : obs::counters()) {
    if (counter == name) return value;
  }
  return 0;
}

void begin_trace() {
  obs::reset();
  obs::set_enabled(true);
}

std::int64_t end_trace() {
  obs::set_enabled(false);
  return obs::dropped_spans();
}

}  // namespace orbit2::perfbench
