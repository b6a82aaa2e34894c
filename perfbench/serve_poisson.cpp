// serve_poisson: open-loop Poisson arrivals against the threaded Service.
//
// Why this workload: it is the only one with a queue, so admission, dynamic
// batching and dispatch show here, and its compressed class runs the
// eager-fallback dispatch path. The arrival rate is an absolute constant
// passed on the command line (BENCHMARK.json), never derived from the speed
// of the code under test, so a faster commit faces the same load.
//
// Latency runs from each arrival's due time in the schedule to
// Request::done_ns, so a stall in the generator or in admission counts.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.hpp"
#include "bench/common.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "harness.hpp"
#include "model/reslim.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"

namespace orbit2::perfbench {
namespace {

constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kDeadlineUs = 200'000;
constexpr std::int64_t kMaxWaitUs = 500;
constexpr std::size_t kInputsPerClass = 32;
// Request objects per class, recycled round-robin; a slot is reused only
// after its previous request reached a terminal status.
constexpr std::size_t kRing = 128;
// Every 16th arrival's output is kept and checked after the timed window.
constexpr std::size_t kCheckEvery = 16;
// A run whose generator submitted later than this at p99 is invalid.
constexpr double kMaxLateP99Ms = 20.0;
// Length of the traced serving phase other workloads' traced runs add.
constexpr double kServeProbeSeconds = 6.0;

/// Kernel threads for serving: the load generator owns one core, so the
/// service worker and its kernel helpers get the rest.
std::size_t serve_threads() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return nproc > 1 ? nproc - 1 : 1;
}

struct Setup {
  std::unique_ptr<model::ReslimModel> model;
  std::unique_ptr<model::ReslimModel> compressed;
  std::vector<serve::LoadProfile> profiles;
  std::unique_ptr<serve::Service> service;

  ~Setup() {
    if (service) service->stop();
  }
};

std::unique_ptr<Setup> build_setup() {
  kernels::set_max_threads(serve_threads());  // restarts the kernel pool
  auto setup = std::make_unique<Setup>();
  const model::ModelConfig config = bench::bench_model_config(0, 8, 2);
  {
    Rng rng(42);
    setup->model = std::make_unique<model::ReslimModel>(config, rng);
  }
  {
    model::ModelConfig compressed = config;
    compressed.compression_ratio = 2.0f;
    Rng rng(42);
    setup->compressed = std::make_unique<model::ReslimModel>(compressed, rng);
  }
  // Mix weights 3:1:1.
  setup->profiles = {{setup->model.get(), "tile16", 8, 16, 16, 3.0},
                     {setup->model.get(), "tile16x32", 8, 16, 32, 1.0},
                     {setup->compressed.get(), "tile16c2", 8, 16, 16, 1.0}};
  serve::ServiceConfig sc;
  sc.queue_capacity = 256;
  sc.max_batch = kMaxBatch;
  sc.max_wait_us = kMaxWaitUs;
  sc.default_deadline_us = kDeadlineUs;
  sc.workers = 1;
  setup->service = std::make_unique<serve::Service>(sc);
  // Plan capture and executor pools; then one request per class through
  // the running service so every lazy buffer exists before timing.
  std::deque<serve::Request> first(setup->profiles.size());
  for (std::size_t p = 0; p < setup->profiles.size(); ++p) {
    const serve::LoadProfile& profile = setup->profiles[p];
    const Tensor example = serve::profile_input(profile, 0);
    setup->service->warm(*profile.model, example,
                         static_cast<std::size_t>(kMaxBatch));
    first[p].model = profile.model;
    first[p].input = example;
    setup->service->submit(&first[p]);
  }
  for (const serve::Request& request : first) request.wait();
  return setup;
}

struct Kept {
  std::size_t profile = 0;
  std::size_t input = 0;
  std::uint32_t crc = 0;  // CRC32 of the served output bytes
};

struct Served {
  double latency_ms = 0.0;
  std::int64_t done_ns = 0;
  std::size_t window = 0;  // whole second of the schedule it was due in
};

struct Phase {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::vector<Served> served;  // kOk requests
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<Kept> kept;
  double wall_s = 0.0;  // first due time -> last completion
  double cpu_s = 0.0;
  serve::Service::Stats stats_delta;

  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    out.reserve(served.size());
    for (const Served& s : served) out.push_back(s.latency_ms);
    return out;
  }

  /// Latencies of the steadier seconds of the schedule, one window per
  /// second.
  std::vector<std::vector<double>> steady_latency_windows() const {
    std::vector<std::size_t> windows;
    for (const Served& s : served) windows.push_back(s.window);
    return steady_windows(latencies_ms(), windows);
  }
};

/// Caller-side request pool of one class. Slots are reused round-robin, so
/// each request's output keeps its class's shape and the service reuses its
/// storage (the zero-allocation steady state a real client gets).
struct Ring {
  std::deque<serve::Request> requests{kRing};
  std::vector<std::size_t> arrival = std::vector<std::size_t>(kRing, 0);
  std::vector<std::int64_t> due = std::vector<std::int64_t>(kRing, 0);
  std::vector<bool> busy = std::vector<bool>(kRing, false);
  std::size_t next = 0;
};

/// Plays one arrival schedule against the running service. With `corrupt`,
/// the first kept output is altered before its CRC is taken.
Phase run_phase(Setup& setup,
                const std::vector<std::vector<Tensor>>& inputs,
                const std::vector<serve::Arrival>& schedule, bool corrupt) {
  Phase phase;
  phase.attempted = static_cast<std::int64_t>(schedule.size());
  phase.late_ms.reserve(schedule.size());
  phase.submit_us.reserve(schedule.size());
  phase.served.reserve(schedule.size());

  std::vector<Ring> rings(setup.profiles.size());
  std::int64_t last_done = 0;

  auto harvest = [&](Ring& ring, std::size_t slot) {
    serve::Request& request = ring.requests[slot];
    request.wait();
    ring.busy[slot] = false;
    const serve::Arrival& arrival = schedule[ring.arrival[slot]];
    switch (request.status()) {
      case serve::RequestStatus::kOk: {
        ++phase.ok;
        phase.served.push_back(
            {static_cast<double>(request.done_ns - ring.due[slot]) * 1e-6,
             request.done_ns,
             static_cast<std::size_t>(arrival.t_ns / 1'000'000'000)});
        last_done = std::max(last_done, request.done_ns);
        if (ring.arrival[slot] % kCheckEvery == 0) {
          if (corrupt && phase.kept.empty()) {
            request.output.data()[0] =
                std::nextafter(request.output.data()[0], 1e30f);
          }
          phase.kept.push_back({arrival.profile,
                                arrival.input_seed % kInputsPerClass,
                                output_crc(request.output)});
        }
        break;
      }
      case serve::RequestStatus::kShed:
        ++phase.shed;
        break;
      default:
        ++phase.rejected;
        break;
    }
  };

  const serve::Service::Stats before = setup.service->stats();
  const double cpu0 = cpu_seconds();
  const std::int64_t start = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const serve::Arrival& arrival = schedule[i];
    const std::int64_t due = start + arrival.t_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    Ring& ring = rings[arrival.profile];
    const std::size_t slot = ring.next++ % kRing;
    if (ring.busy[slot]) harvest(ring, slot);
    serve::Request& request = ring.requests[slot];
    request.rearm();
    request.deadline_ns = 0;
    request.model = setup.profiles[arrival.profile].model;
    request.input =
        inputs[arrival.profile][arrival.input_seed % kInputsPerClass];
    ring.due[slot] = due;
    ring.arrival[slot] = i;
    ring.busy[slot] = true;
    const std::int64_t t_submit = now_ns();
    setup.service->submit(&request);
    phase.submit_us.push_back(static_cast<double>(now_ns() - t_submit) * 1e-3);
    phase.late_ms.push_back(static_cast<double>(t_submit - due) * 1e-6);
  }
  for (Ring& ring : rings) {
    for (std::size_t slot = 0; slot < kRing; ++slot) {
      if (ring.busy[slot]) harvest(ring, slot);
    }
  }
  phase.cpu_s = cpu_seconds() - cpu0;
  const std::int64_t first_due = start + schedule.front().t_ns;
  phase.wall_s =
      static_cast<double>(std::max(last_done, first_due + 1) - first_due) *
      1e-9;
  const serve::Service::Stats after = setup.service->stats();
  phase.stats_delta.batches = after.batches - before.batches;
  phase.stats_delta.eager_fallback_batches =
      after.eager_fallback_batches - before.eager_fallback_batches;
  return phase;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())) - 1.0);
  return values[std::min(index, values.size() - 1)];
}

/// Checks every kept output against a tape-free eager downscale of the same
/// input: the bytes' CRC32s must match. Returns the number of mismatches.
std::int64_t check_outputs(const Setup& setup,
                           const std::vector<std::vector<Tensor>>& inputs,
                           const std::vector<Kept>& kept) {
  std::int64_t wrong = 0;
  autograd::InferenceModeScope no_tape;
  for (const Kept& k : kept) {
    const Tensor reference = setup.profiles[k.profile]
                                 .model->downscale(inputs[k.profile][k.input])
                                 .value();
    if (output_crc(reference) != k.crc) ++wrong;
  }
  return wrong;
}

std::vector<serve::Arrival> make_schedule(const Setup& setup, double rate_hz,
                                          double seconds,
                                          std::uint64_t seed) {
  serve::LoadGenConfig gen;
  gen.rate_hz = rate_hz;
  gen.count = static_cast<std::size_t>(
      std::max(16.0, std::round(rate_hz * seconds)));
  gen.seed = seed;
  return serve::poisson_schedule(gen, setup.profiles);
}

/// serve.batch_ms_per_req.b*: a manual-mode service on the calling thread
/// drains full batches of exactly b 16x16 requests; each traced serve/batch
/// span over b is the per-request cost at that batch size.
void probe_batch_sizes(Metrics& metrics, const Setup& setup,
                       const Options& options) {
  const int rounds = options.tiny ? 2 : 12;
  const Tensor input = serve::profile_input(setup.profiles[0], 99);
  for (const std::int64_t b : {1, 2, 4, 8}) {
    serve::ServiceConfig sc;
    sc.manual = true;
    sc.queue_capacity = static_cast<std::size_t>(kMaxBatch);
    sc.max_batch = b;
    sc.max_wait_us = 1'000'000;
    serve::SimClock clock;
    serve::Service service(sc, &clock);
    service.warm(*setup.model, input, static_cast<std::size_t>(b));
    std::deque<serve::Request> requests(static_cast<std::size_t>(kMaxBatch));
    auto round = [&] {
      for (serve::Request& request : requests) {
        request.rearm();
        request.model = setup.model.get();
        request.input = input;
        service.submit(&request);
      }
      service.flush();
    };
    round();  // sizes outputs and executor scratch
    begin_trace();
    for (int r = 0; r < rounds; ++r) round();
    end_trace();
    SpanSummary spans;
    spans.capture();
    std::vector<double> per_req_ms;
    for (const obs::SpanRecord& span : spans.serve_batches()) {
      if (span.arg_value == b) {
        per_req_ms.push_back(static_cast<double>(span.dur_ns) * 1e-6 /
                             static_cast<double>(b));
      }
    }
    metrics.set("serve.batch_ms_per_req.b" + std::to_string(b),
                median(per_req_ms), "ms");
  }
}

/// serve.queue_wait_ms: each request's latency minus the serve/batch span
/// of the batch it rode in. One worker dispatches batches in order, and a
/// batch's requests share done_ns, so the n-th completion group is the n-th
/// serve/batch span.
double queue_wait_ms(const Phase& phase, const SpanSummary& spans,
                     Result& result) {
  std::vector<Served> served = phase.served;
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) { return a.done_ns < b.done_ns; });
  const std::vector<obs::SpanRecord>& batches = spans.serve_batches();
  std::vector<double> waits;
  std::size_t group = 0;
  bool matched = true;
  for (std::size_t i = 0; i < served.size();) {
    std::size_t j = i;
    while (j < served.size() && served[j].done_ns == served[i].done_ns) ++j;
    if (group >= batches.size() ||
        batches[group].arg_value != static_cast<std::int64_t>(j - i)) {
      matched = false;
      break;
    }
    const double batch_ms = static_cast<double>(batches[group].dur_ns) * 1e-6;
    for (std::size_t k = i; k < j; ++k) {
      waits.push_back(served[k].latency_ms - batch_ms);
    }
    ++group;
    i = j;
  }
  if (!matched || group != batches.size()) {
    result.notes.push_back(
        "serve.queue_wait_ms: completion groups did not line up with "
        "serve/batch spans; reported 0");
    return 0.0;
  }
  return median(waits);
}

std::vector<std::vector<Tensor>> make_inputs(const Setup& setup,
                                             std::uint64_t seed) {
  std::vector<std::vector<Tensor>> inputs(setup.profiles.size());
  for (std::size_t p = 0; p < setup.profiles.size(); ++p) {
    for (std::size_t k = 0; k < kInputsPerClass; ++k) {
      inputs[p].push_back(serve::profile_input(
          setup.profiles[p], mix_seed(seed, p * kInputsPerClass + k)));
    }
  }
  return inputs;
}

/// The serve-layer metrics of a traced phase, plus the batch-size probe.
void serve_layer_metrics(Metrics& m, const Setup& setup, const Phase& traced,
                         const SpanSummary& spans, const Options& options,
                         Result& result) {
  m.set("loadgen.late_p99_ms", percentile(traced.late_ms, 0.99), "ms");
  m.set("serve.submit_us", median(traced.submit_us), "us");
  m.set("serve.queue_wait_ms", queue_wait_ms(traced, spans, result), "ms");
  std::vector<double> sizes;
  for (const obs::SpanRecord& span : spans.serve_batches()) {
    sizes.push_back(static_cast<double>(span.arg_value));
  }
  m.set("serve.batch_size_mean", mean(sizes), "count");
  m.set("serve.eager_batch_share",
        traced.stats_delta.batches > 0
            ? static_cast<double>(traced.stats_delta.eager_fallback_batches) /
                  static_cast<double>(traced.stats_delta.batches)
            : 0.0,
        "share");
  m.set("serve.shed", static_cast<double>(traced.shed), "count");
  m.set("serve.rejected", static_cast<double>(traced.rejected), "count");
  probe_batch_sizes(m, setup, options);
}

}  // namespace

Result run_serve_poisson(const Options& options) {
  ORBIT2_REQUIRE(options.rate_hz > 0.0,
                 "serve_poisson needs --rate-hz (an absolute arrival rate)");
  Result result;
  const int setup_reps = options.tiny || options.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    setup.reset();
    const std::int64_t t0 = rep == 0 ? process_start_ns() : now_ns();
    setup = build_setup();
    setup_s.push_back(seconds_since(t0));
  }

  const std::vector<std::vector<Tensor>> inputs =
      make_inputs(*setup, options.seed);

  std::vector<Phase> phases;
  if (!options.trace) {
    phases.push_back(run_phase(
        *setup, inputs,
        make_schedule(*setup, options.rate_hz, options.seconds,
                      options.seed),
        options.corrupt));
  } else {
    // Untraced then traced halves of the same load: their p50 difference
    // is the tracing overhead.
    const double half = options.seconds / 2.0;
    phases.push_back(run_phase(
        *setup, inputs,
        make_schedule(*setup, options.rate_hz, half, options.seed),
        options.corrupt));
    begin_trace();
    phases.push_back(run_phase(
        *setup, inputs,
        make_schedule(*setup, options.rate_hz, half, options.seed + 1),
        false));
    const std::int64_t dropped = end_trace();
    if (dropped > 0) {
      result.notes.push_back("trace dropped " + std::to_string(dropped) +
                             " spans");
    }
  }
  const Phase& timed = phases.back();

  std::int64_t wrong = 0;
  for (const Phase& phase : phases) {
    wrong += check_outputs(*setup, inputs, phase.kept);
  }
  result.correct = wrong == 0;
  result.attempted = timed.attempted;
  result.failed = timed.shed + timed.rejected + wrong;

  const double late_p99 = percentile(timed.late_ms, 0.99);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "rate %.1f req/s, %lld arrivals, %lld ok, %lld shed, %lld "
                "rejected, %lld wrong of %zu checked; generator late p99 "
                "%.3f ms (bound %.1f)",
                options.rate_hz, static_cast<long long>(timed.attempted),
                static_cast<long long>(timed.ok),
                static_cast<long long>(timed.shed),
                static_cast<long long>(timed.rejected),
                static_cast<long long>(wrong), timed.kept.size(), late_p99,
                kMaxLateP99Ms);
  result.notes.push_back(buf);
  for (const Phase& phase : phases) {
    if (percentile(phase.late_ms, 0.99) > kMaxLateP99Ms) {
      result.valid = false;
    }
  }

  if (!options.trace) {
    const std::int64_t ok = timed.ok - wrong;
    add_end_to_end(result, median(setup_s), timed.steady_latency_windows(),
                   /*pool=*/false,
                   {"requests", 1.0, 1.0, static_cast<double>(ok) / timed.wall_s},
                   timed.cpu_s, timed.ok);
    return result;
  }

  Metrics& m = result.metrics;
  SpanSummary spans;
  spans.capture();
  const double p50_untraced = median(phases.front().latencies_ms());
  const double p50_traced = median(timed.latencies_ms());
  m.set("obs.overhead_share", (p50_traced - p50_untraced) / p50_untraced,
        "share");
  result.notes.push_back("latency p50 untraced " +
                         std::to_string(p50_untraced) + " ms, traced " +
                         std::to_string(p50_traced) + " ms");
  summarize_kernels(m, spans, timed.wall_s * 1e3, serve_threads());
  serve_layer_metrics(m, *setup, timed, spans, options, result);
  probe_dispatch(m, options);
  setup.reset();
  probe_graph(m, options);
  probe_host(m, options);
  return result;
}

void probe_serve(Metrics& metrics, const Options& options) {
  ORBIT2_REQUIRE(options.rate_hz > 0.0,
                 "the serve probe needs --rate-hz (an absolute arrival rate)");
  const ThreadsScope threads(serve_threads());
  const std::unique_ptr<Setup> setup = build_setup();
  const std::vector<std::vector<Tensor>> inputs =
      make_inputs(*setup, options.seed);
  const double seconds = options.tiny ? 1.0 : kServeProbeSeconds;
  begin_trace();
  const Phase phase = run_phase(
      *setup, inputs,
      make_schedule(*setup, options.rate_hz, seconds, options.seed), false);
  end_trace();
  SpanSummary spans;
  spans.capture();
  Result notes;
  serve_layer_metrics(metrics, *setup, phase, spans, options, notes);
  ORBIT2_REQUIRE(check_outputs(*setup, inputs, phase.kept) == 0,
                 "serve probe: served outputs differ from eager downscale");
}

}  // namespace orbit2::perfbench
