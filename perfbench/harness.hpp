#pragma once
// Shared pieces of the orbit2 benchmark harness: run options, the metric
// record every workload fills, timing and statistics helpers, and summaries
// of the spans and counters the program already emits (src/core/obs.hpp).
//
// The harness adds no instrumentation to the program. Layer timings come
// either from the harness's own clock reads around calls into a layer's
// public functions, or from the existing obs spans and counters, read after
// a traced phase.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/obs.hpp"
#include "tensor/tensor.hpp"

namespace orbit2::perfbench {

/// Untraced runs set up this many times and report the median set-up time.
constexpr int kSetupReps = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: one set-up, shortest probes.
  bool tiny = false;
  /// Corrupts one checked output before the check (self-test of the check).
  bool corrupt = false;
  /// serve_poisson arrival rate, requests/s (an absolute constant).
  double rate_hz = 0.0;
  /// train_tiles reference pins: bits of the final loss and parameter CRC.
  std::uint64_t pin_loss_bits = 0;
  std::uint32_t pin_crc = 0;
  bool have_pins = false;
  /// Directory for the checkpoint the train_tiles traced run writes.
  std::string scratch_dir = ".";
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What a workload reports: the result line's counts and metrics, plus
/// free-form facts (tail percentile, sample counts) printed beside them.
struct Result {
  bool correct = true;
  bool valid = true;  // false: generator fell behind; nothing is reported
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;
};

// ---- Clocks and process counters ------------------------------------------

/// steady_clock nanoseconds (the serve RealClock uses the same base).
std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);
/// Process user+sys CPU seconds, all threads (getrusage).
double cpu_seconds();
/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();
/// Wall time of process start as seen by main(); set once at entry.
void mark_process_start();
std::int64_t process_start_ns();
/// Share of all CPU time since mark_process_start() that the hypervisor
/// stole from the machine (/proc/stat), or -1 where that is unavailable.
/// Recorded beside every result: steal is one cause of noisy runs.
double steal_share_since_start();

/// Sets the kernel thread count for a scope and restores it on exit.
class ThreadsScope {
 public:
  explicit ThreadsScope(std::size_t threads);
  ~ThreadsScope();
  ThreadsScope(const ThreadsScope&) = delete;
  ThreadsScope& operator=(const ThreadsScope&) = delete;

 private:
  std::size_t saved_;
};

/// Input seed derived from the run's --seed and an index (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// CRC32 of a tensor's bytes: how the output checks compare results.
std::uint32_t output_crc(const Tensor& tensor);

// ---- Statistics ------------------------------------------------------------

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest value. `percentile` is the share of samples at or below it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

// ---- Steady windows ---------------------------------------------------------
//
// On a shared VM other tenants slow this one in bursts of seconds: the
// hypervisor steals CPU time, and a busy sibling hyperthread or a neighbour's
// memory traffic slows a core with no steal showing at all. Timed phases are
// cut into one-second windows, and the latency statistics use the steadier
// half of them: the windows with the lowest median unit latency. Work and
// CPU time still count every unit.

/// Closed loops run this long untimed after set-up, so the timed phase
/// starts with warm caches and a warm allocator.
constexpr double kWarmupSeconds = 2.0;

/// The whole second, counted from `start_ns`, that `t_ns` falls in.
std::size_t window_of(std::int64_t start_ns, std::int64_t t_ns);

/// Groups unit latencies by window (`window[i]` is unit i's window) and
/// keeps the steadier half: the windows with the lowest median latency.
/// Windows with fewer than three units are left out while others remain.
std::vector<std::vector<double>> steady_windows(
    const std::vector<double>& latency_ms,
    const std::vector<std::size_t>& window);

/// Adds the seven end-to-end metrics from the steady windows' latencies
/// (ms). With `pool`, the windows are pooled before p50 and tail are taken
/// (closed loops, tens of units per second); otherwise p50 and tail are
/// computed per window and the median over windows is reported (serving,
/// hundreds of requests per second). A closed loop's throughput is its
/// steady units over their summed latency, times `ok_share`; an open loop's
/// is given as `throughput`. `unit_size` converts units to the throughput
/// unit.
struct Throughput {
  const char* unit_note;  // what throughput_per_s counts
  double unit_size = 1.0;
  double ok_share = 1.0;
  double open_loop = 0.0;  // > 0: use this rate instead
};
void add_end_to_end(Result& result, double setup_s,
                    const std::vector<std::vector<double>>& steady_ms,
                    bool pool, const Throughput& throughput, double cpu_s,
                    std::int64_t completed);

// ---- Trace summaries -------------------------------------------------------

/// Wall spans grouped by name, captured once after a traced phase.
class SpanSummary {
 public:
  void capture();
  /// Durations (ns) of every span with this name.
  const std::vector<std::int64_t>& durations(const std::string& name) const;
  double total_ms(const std::string& name) const;
  /// Every graph/op span's duration keyed by its op-kind argument.
  const std::map<std::int64_t, double>& op_kind_ms() const {
    return op_kind_ms_;
  }
  /// serve/batch spans, in start order per thread.
  const std::vector<obs::SpanRecord>& serve_batches() const {
    return serve_batches_;
  }

 private:
  std::map<std::string, std::vector<std::int64_t>> durations_;
  std::vector<obs::SpanRecord> serve_batches_;
  std::map<std::int64_t, double> op_kind_ms_;
};

/// Value of a registered obs counter (0 when never touched).
std::int64_t counter_value(const char* name);

/// Starts a traced phase: clears recorded spans and counters, turns on.
void begin_trace();
/// Ends it; returns the number of spans dropped at the per-thread cap.
std::int64_t end_trace();

// ---- Per-layer probes shared by every traced run (probes.cpp) -------------

/// graph.capture_ms / replay_ms / allocs_per_call for the three plan shapes.
void probe_graph(Metrics& metrics, const Options& options);
/// kernels.dispatch_us.n2 / n4 at the current kernel thread count.
void probe_dispatch(Metrics& metrics, const Options& options);
/// host.gemm_peak_gflops and host.stream_gbps.
void probe_host(Metrics& metrics, const Options& options);
/// The serve-layer metrics (serve.*, loadgen.late_p99_ms) from a short
/// traced Poisson phase at --rate-hz on the serve_poisson set-up. Traced
/// runs of workloads without a queue add it, so the serve layer is measured
/// whichever workloads a benchmark keeps. Throws if a served output is
/// wrong.
void probe_serve(Metrics& metrics, const Options& options);
/// graph.op_share.* plus the kernel rate and share metrics, from spans and
/// FLOP counters of a traced phase whose units took `unit_wall_ms` in total
/// with `threads` kernel threads.
void summarize_kernels(Metrics& metrics, const SpanSummary& spans,
                       double unit_wall_ms, std::size_t threads);

// ---- Workloads --------------------------------------------------------------

Result run_serve_poisson(const Options& options);
Result run_field_tiled(const Options& options);
Result run_train_tiles(const Options& options);

}  // namespace orbit2::perfbench
