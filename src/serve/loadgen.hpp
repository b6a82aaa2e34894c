#pragma once
// Seeded synthetic load generator + deterministic replay harness.
//
// poisson_schedule() turns (rate, count, seed, weighted profiles) into a
// fixed arrival schedule: open-loop Poisson arrivals (exponential
// inter-arrival gaps) with a weighted profile pick and a per-request input
// seed, all drawn from one splitmix/xoshiro stream. The same seed always
// yields the same schedule, so the benchmark and the golden replay test
// share one generator.
//
// The schedule can be consumed two ways:
//
//   * wall-clock (bench_serve): sleep/spin to each t_ns and submit against
//     the threaded service, measuring real latency percentiles, or
//   * sim-clock (replay_on_sim_clock): advance a SimClock through the
//     schedule against a manual-mode service. Every accept/shed/reject
//     decision and every output CRC is then a pure function of the seed —
//     the golden load-replay test pins both sequences.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "model/downscaler.hpp"
#include "serve/clock.hpp"
#include "serve/service.hpp"
#include "tensor/tensor.hpp"

namespace orbit2::serve {

/// One request archetype in the synthetic mix.
struct LoadProfile {
  const model::Downscaler* model = nullptr;
  std::string name;            // for reports / traces
  std::int64_t channels = 1;   // input [channels, height, width]
  std::int64_t height = 0;
  std::int64_t width = 0;
  double weight = 1.0;         // relative arrival share (> 0)
};

/// One scheduled arrival: submit profile `profile` at sim/wall time `t_ns`
/// with an input synthesized from `input_seed`.
struct Arrival {
  std::int64_t t_ns = 0;
  std::size_t profile = 0;
  std::uint64_t input_seed = 0;
};

struct LoadGenConfig {
  double rate_hz = 100.0;    // mean arrival rate of the Poisson process
  std::size_t count = 64;    // arrivals to schedule
  std::uint64_t seed = 0x5eedu;
};

/// Deterministic open-loop Poisson schedule over the weighted profile mix.
std::vector<Arrival> poisson_schedule(const LoadGenConfig& config,
                                      const std::vector<LoadProfile>& profiles);

/// The input tensor for an arrival: uniform [-1, 1) in the profile's shape,
/// fully determined by `seed`.
Tensor profile_input(const LoadProfile& profile, std::uint64_t seed);

/// Outcome of a deterministic sim-clock replay. Decision/status strings use
/// one character per arrival, in schedule order:
///   decisions: 'A' accepted, 'R' rejected at admission;
///   statuses:  'O' ok, 'S' shed, 'R' rejected, 'F' failed.
/// `crcs` holds one output CRC32 per completed ('O') request, in schedule
/// order; non-'O' requests contribute nothing.
struct ReplayResult {
  std::string decisions;
  std::string statuses;
  std::vector<std::uint32_t> crcs;
  std::size_t batches = 0;
};

/// Drives `service` (manual mode, clocked by `clock`) through `schedule`:
/// advance -> poll at every batching instant -> submit, then drain. Request
/// objects live in `storage` (cleared first) so callers can inspect them
/// after the run.
ReplayResult replay_on_sim_clock(Service& service, SimClock& clock,
                                 const std::vector<LoadProfile>& profiles,
                                 const std::vector<Arrival>& schedule,
                                 std::deque<Request>& storage);

}  // namespace orbit2::serve
