// Zero-allocation serving contract: with single-threaded kernels, tracing
// disabled, a warmed plan (one pooled executor + compiled plan cached),
// pre-sized response buffers, and a warmed service (grow-only staging
// scratch), one submit -> poll -> complete cycle performs ZERO heap
// allocations — for a lone request and for a full batch, which replays its
// samples one after another through that same executor. Lives in its own
// binary because ORBIT2_INSTALL_ALLOC_COUNTER replaces the global allocator
// for the whole process.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>

#include "core/debug_check.hpp"
#include "core/kernels.hpp"
#include "model/reslim.hpp"
#include "serve/clock.hpp"
#include "serve/service.hpp"

ORBIT2_INSTALL_ALLOC_COUNTER();

namespace orbit2::serve {
namespace {

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.017f * static_cast<float>(i));
  }
  return input;
}

TEST(ServeAlloc, SteadyStateRequestIsAllocationFree) {
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(1);
  model::ReslimModel model(config, rng);

  kernels::set_max_threads(1);
  for (const std::int64_t max_batch : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "max_batch " << max_batch);
    ServiceConfig sc;
    sc.manual = true;
    sc.max_batch = max_batch;
    SimClock clock;
    Service service(sc, &clock);

    std::deque<Request> requests(static_cast<std::size_t>(max_batch));
    for (Request& request : requests) {
      request.model = &model;
      request.input = make_input(3, 12, 20);
    }
    ASSERT_TRUE(service.warm(model, requests.front().input, 1));

    // One full batch per cycle. Two warm-up cycles: the first compiles
    // nothing new (warm() did) but sizes each request's output, grows the
    // service's staging scratch, and grows the kernels' thread-local scratch
    // to this plan's high-water mark.
    auto cycle = [&] {
      for (Request& request : requests) service.submit(&request);
      return service.poll();
    };
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(cycle(), 1u);
      for (Request& request : requests) {
        ASSERT_EQ(request.status(), RequestStatus::kOk);
        request.rearm();
      }
    }

    std::int64_t delta = -1;
    {
      debug::AllocCountScope scope;
      cycle();
      delta = scope.delta();
    }
    for (const Request& request : requests) {
      EXPECT_EQ(request.status(), RequestStatus::kOk);
      EXPECT_EQ(request.batch_size, max_batch);
    }
    EXPECT_EQ(delta, 0) << "steady-state serve cycle allocated";
    // The batch replayed sample by sample through the one warmed executor.
    EXPECT_EQ(model.compiled_for(requests.front().input)->pooled_executors(),
              1u);
  }
  kernels::set_max_threads(0);
}

TEST(ServeAlloc, RejectionPathIsAllocationFree) {
  // Backpressure must stay allocation-free too: a full queue's rejection
  // is the path that runs exactly when the process is under the most load.
  if (!debug::alloc_counting_installed()) {
    GTEST_SKIP() << "alloc counter not installed";
  }
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(2);
  model::ReslimModel model(config, rng);

  kernels::set_max_threads(1);
  ServiceConfig sc;
  sc.manual = true;
  sc.queue_capacity = 1;
  sc.drain_on_stop = false;
  SimClock clock;
  Service service(sc, &clock);

  Request occupant;
  occupant.model = &model;
  occupant.input = make_input(3, 12, 20);
  ASSERT_TRUE(service.submit(&occupant));

  Request rejected;
  rejected.model = &model;
  rejected.input = make_input(3, 12, 20);
  std::int64_t delta = -1;
  {
    debug::AllocCountScope scope;
    service.submit(&rejected);
    delta = scope.delta();
  }
  // Resolve the still-queued occupant while it is alive: the service holds
  // its raw pointer until a terminal status, so stop() must run before the
  // Request objects (declared after `service`) are destroyed.
  service.stop();
  kernels::set_max_threads(0);
  EXPECT_EQ(rejected.status(), RequestStatus::kRejected);
  EXPECT_EQ(occupant.status(), RequestStatus::kRejected);
  EXPECT_EQ(delta, 0) << "admission rejection allocated";
}

}  // namespace
}  // namespace orbit2::serve
