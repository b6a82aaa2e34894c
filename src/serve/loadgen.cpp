#include "serve/loadgen.hpp"

#include <cmath>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"

namespace orbit2::serve {

std::vector<Arrival> poisson_schedule(
    const LoadGenConfig& config, const std::vector<LoadProfile>& profiles) {
  ORBIT2_REQUIRE(config.rate_hz > 0.0, "arrival rate must be positive");
  ORBIT2_REQUIRE(!profiles.empty(), "need at least one load profile");
  double total_weight = 0.0;
  for (const LoadProfile& profile : profiles) {
    ORBIT2_REQUIRE(profile.weight > 0.0, "profile weights must be positive");
    total_weight += profile.weight;
  }

  Rng rng(config.seed);
  std::vector<Arrival> schedule;
  schedule.reserve(config.count);
  double t_seconds = 0.0;
  for (std::size_t i = 0; i < config.count; ++i) {
    // Exponential inter-arrival gap; uniform() < 1 keeps the log finite.
    t_seconds += -std::log(1.0 - rng.uniform()) / config.rate_hz;
    // Weighted profile pick from the same stream.
    double pick = rng.uniform() * total_weight;
    std::size_t profile = 0;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      pick -= profiles[p].weight;
      if (pick < 0.0) {
        profile = p;
        break;
      }
    }
    Arrival arrival;
    arrival.t_ns = static_cast<std::int64_t>(t_seconds * 1e9);
    arrival.profile = profile;
    arrival.input_seed = rng.next_u64();
    schedule.push_back(arrival);
  }
  return schedule;
}

Tensor profile_input(const LoadProfile& profile, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape{profile.channels, profile.height,
                               profile.width},
                         rng, -1.0f, 1.0f);
}

ReplayResult replay_on_sim_clock(Service& service, SimClock& clock,
                                 const std::vector<LoadProfile>& profiles,
                                 const std::vector<Arrival>& schedule,
                                 std::deque<Request>& storage) {
  ORBIT2_REQUIRE(service.config().manual,
                 "replay_on_sim_clock needs a manual-mode service");
  ReplayResult result;
  storage.clear();

  for (const Arrival& arrival : schedule) {
    // Let every batching instant strictly before this arrival fire first,
    // in order — the sim-clock analogue of the worker waking on aging.
    for (;;) {
      const std::int64_t ready = service.next_ready_ns();
      if (ready == Batcher::kNever || ready > arrival.t_ns) break;
      clock.advance_to(ready);
      result.batches += service.poll();
    }
    clock.advance_to(arrival.t_ns);
    result.batches += service.poll();

    const LoadProfile& profile = profiles[arrival.profile];
    storage.emplace_back();
    Request& request = storage.back();
    request.model = profile.model;
    request.input = profile_input(profile, arrival.input_seed);
    result.decisions.push_back(service.submit(&request) ? 'A' : 'R');
  }

  // Drain: run out every remaining batching window, then force the rest.
  for (;;) {
    const std::int64_t ready = service.next_ready_ns();
    if (ready == Batcher::kNever) break;
    clock.advance_to(ready);
    result.batches += service.poll();
  }
  result.batches += service.flush();

  for (const Request& request : storage) {
    switch (request.status()) {
      case RequestStatus::kOk: {
        result.statuses.push_back('O');
        const Tensor::const_span data = request.output.data();
        result.crcs.push_back(
            crc32(data.data(), data.size() * sizeof(float)));
        break;
      }
      case RequestStatus::kShed:
        result.statuses.push_back('S');
        break;
      case RequestStatus::kFailed:
        result.statuses.push_back('F');
        break;
      default:
        result.statuses.push_back('R');
        break;
    }
  }
  return result;
}

}  // namespace orbit2::serve
