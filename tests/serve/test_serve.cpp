// orbit2::serve functional contract:
//
//   * batched execution is BITWISE identical to sequential eager — for both
//     architectures, on pow2 and non-pow2 grids, at every batch size 1..8,
//     under kernel thread counts {1, 2, 4} (sample-parallel replay + PR 3's
//     thread-count invariance);
//   * FIFO within a compatibility class, full-batch-first across classes;
//   * bounded-queue admission rejects explicitly; expired deadlines shed
//     explicitly at batch assembly;
//   * adaptive-compression models serve from one compiled plan per shape,
//     bitwise equal to eager for same-shape inputs whose quad-tree
//     partitions differ, with no eager fallback batch;
//   * stop() drains or rejects per configuration;
//   * a request the model throws on ends kFailed and the service keeps
//     serving, in manual and threaded mode; so do degenerate grids (empty,
//     rank-2, all-NaN) sent to a compressed model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "autograd/variable.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "model/reslim.hpp"
#include "model/vit_baseline.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"

namespace orbit2::serve {
namespace {

model::ModelConfig serving_config(model::Architecture arch) {
  model::ModelConfig config = model::preset_tiny();
  config.architecture = arch;
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  return config;
}

std::unique_ptr<model::Downscaler> make_model(model::ModelConfig config,
                                              std::uint64_t seed) {
  Rng rng(seed);
  if (config.architecture == model::Architecture::kViTBaseline) {
    return std::make_unique<model::ViTBaselineModel>(config, rng);
  }
  return std::make_unique<model::ReslimModel>(config, rng);
}

Tensor make_input(std::int64_t c, std::int64_t h, std::int64_t w,
                  std::uint64_t salt) {
  Tensor input(Shape{c, h, w});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.013f * static_cast<float>(i + 1) +
                    0.61f * static_cast<float>(salt));
  }
  return input;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Sequential eager reference: the uncompiled forward at one kernel thread.
Tensor eager_reference(const model::Downscaler& m, const Tensor& input) {
  kernels::set_max_threads(1);
  autograd::InferenceModeScope no_tape;
  Tensor out;
  if (const auto* reslim = dynamic_cast<const model::ReslimModel*>(&m)) {
    out = reslim->forward(input).value();
  } else {
    out = dynamic_cast<const model::ViTBaselineModel&>(m)
              .forward(input)
              .value();
  }
  kernels::set_max_threads(0);
  return out;
}

// ---- Bitwise equivalence sweep ---------------------------------------------

struct Grid {
  std::int64_t h;
  std::int64_t w;
};

void run_bitwise_sweep(model::Architecture arch) {
  const model::ModelConfig config = serving_config(arch);
  const auto model = make_model(config, 7);
  // (16, 16): power-of-two tile; (10, 14) / (12, 20): non-pow2 grids.
  const Grid grids[] = {{16, 16}, {10, 14}, {12, 20}};
  const std::size_t kThreads[] = {1, 2, 4};

  for (const Grid grid : grids) {
    // References first, sequentially, single-threaded eager.
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    for (std::uint64_t b = 0; b < 8; ++b) {
      inputs.push_back(make_input(config.in_channels, grid.h, grid.w, b));
      expected.push_back(eager_reference(*model, inputs.back()));
    }

    for (const std::size_t threads : kThreads) {
      kernels::set_max_threads(threads);
      for (std::size_t batch = 1; batch <= 8; ++batch) {
        ServiceConfig sc;
        sc.manual = true;
        sc.max_batch = static_cast<std::int64_t>(batch);
        sc.max_wait_us = 1'000'000;  // group everything staged together
        SimClock clock;
        Service service(sc, &clock);

        std::deque<Request> requests;
        for (std::size_t i = 0; i < batch; ++i) {
          requests.emplace_back();
          requests.back().model = model.get();
          requests.back().input = inputs[i];
          ASSERT_TRUE(service.submit(&requests.back()));
        }
        service.flush();

        for (std::size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(requests[i].status(), RequestStatus::kOk)
              << "grid " << grid.h << "x" << grid.w << " batch " << batch
              << " threads " << threads << " item " << i;
          EXPECT_EQ(requests[i].batch_size,
                    static_cast<std::int64_t>(batch));
          EXPECT_TRUE(bitwise_equal(requests[i].output, expected[i]))
              << "batched output diverged from sequential eager: grid "
              << grid.h << "x" << grid.w << " batch " << batch << " threads "
              << threads << " item " << i;
        }
      }
      kernels::set_max_threads(0);
    }
  }
}

TEST(ServeBitwise, ReslimBatchedMatchesSequentialEager) {
  run_bitwise_sweep(model::Architecture::kReslim);
}

TEST(ServeBitwise, ViTBatchedMatchesSequentialEager) {
  run_bitwise_sweep(model::Architecture::kViTBaseline);
}

TEST(ServeBitwise, WindowedReslimBatchedMatchesSequentialEager) {
  model::ModelConfig config = serving_config(model::Architecture::kReslim);
  config.attention_window = 2;
  const auto model = make_model(config, 11);
  const Tensor input = make_input(config.in_channels, 12, 20, 1);
  const Tensor expected = eager_reference(*model, input);

  kernels::set_max_threads(4);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 4;
  SimClock clock;
  Service service(sc, &clock);
  std::deque<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.emplace_back();
    requests.back().model = model.get();
    requests.back().input = input;
    ASSERT_TRUE(service.submit(&requests.back()));
  }
  service.flush();
  kernels::set_max_threads(0);
  for (const Request& request : requests) {
    ASSERT_EQ(request.status(), RequestStatus::kOk);
    EXPECT_TRUE(bitwise_equal(request.output, expected));
  }
}

// ---- Batching policy --------------------------------------------------------

TEST(ServePolicy, FifoWithinCompatibilityClass) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                3);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 2;
  sc.max_wait_us = 1'000'000;
  SimClock clock;
  Service service(sc, &clock);

  std::deque<Request> requests;
  for (std::uint64_t i = 0; i < 3; ++i) {
    requests.emplace_back();
    requests.back().model = model.get();
    requests.back().input = make_input(3, 10, 14, i);
    ASSERT_TRUE(service.submit(&requests.back()));
  }
  // poll() launches the full batch (requests 0 and 1, in arrival order);
  // request 2 stays staged — partial and not yet aged.
  ASSERT_EQ(service.poll(), 1u);
  EXPECT_EQ(requests[0].status(), RequestStatus::kOk);
  EXPECT_EQ(requests[1].status(), RequestStatus::kOk);
  EXPECT_EQ(requests[0].batch_size, 2);
  EXPECT_EQ(requests[1].batch_size, 2);
  EXPECT_EQ(requests[2].status(), RequestStatus::kQueued);
  ASSERT_EQ(service.flush(), 1u);
  EXPECT_EQ(requests[2].status(), RequestStatus::kOk);
  EXPECT_EQ(requests[2].batch_size, 1);
}

TEST(ServePolicy, FullClassOvertakesPartialOlderClass) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                4);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 2;
  sc.max_wait_us = 1'000'000;  // aging never triggers in this test
  SimClock clock;
  Service service(sc, &clock);

  std::deque<Request> requests;
  auto submit = [&](std::int64_t h, std::int64_t w, std::uint64_t salt) {
    requests.emplace_back();
    requests.back().model = model.get();
    requests.back().input = make_input(3, h, w, salt);
    ASSERT_TRUE(service.submit(&requests.back()));
  };
  submit(10, 14, 0);  // class A, arrives first, stays partial
  submit(12, 20, 1);  // class B
  submit(12, 20, 2);  // class B fills
  ASSERT_EQ(service.poll(), 1u);
  EXPECT_EQ(requests[0].status(), RequestStatus::kQueued)
      << "partial older class must not launch while a full class waits";
  EXPECT_EQ(requests[1].status(), RequestStatus::kOk);
  EXPECT_EQ(requests[2].status(), RequestStatus::kOk);
  service.flush();
  EXPECT_EQ(requests[0].status(), RequestStatus::kOk);
}

TEST(ServePolicy, AgingLaunchesPartialBatch) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                5);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 8;
  sc.max_wait_us = 100;  // 100us window
  SimClock clock;
  Service service(sc, &clock);

  Request request;
  request.model = model.get();
  request.input = make_input(3, 10, 14, 0);
  ASSERT_TRUE(service.submit(&request));
  EXPECT_EQ(service.poll(), 0u) << "window not yet expired";
  EXPECT_EQ(service.next_ready_ns(), request.enqueue_ns + 100'000);
  clock.advance_to(service.next_ready_ns());
  EXPECT_EQ(service.poll(), 1u);
  EXPECT_EQ(request.status(), RequestStatus::kOk);
  EXPECT_EQ(request.batch_size, 1);
}

// ---- Admission / deadlines --------------------------------------------------

TEST(ServeAdmission, FullQueueRejectsExplicitly) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                6);
  ServiceConfig sc;
  sc.manual = true;
  sc.queue_capacity = 2;
  SimClock clock;
  Service service(sc, &clock);

  std::deque<Request> requests;
  for (int i = 0; i < 3; ++i) {
    requests.emplace_back();
    requests.back().model = model.get();
    requests.back().input = make_input(3, 10, 14, 0);
  }
  EXPECT_TRUE(service.submit(&requests[0]));
  EXPECT_TRUE(service.submit(&requests[1]));
  EXPECT_FALSE(service.submit(&requests[2]));
  EXPECT_EQ(requests[2].status(), RequestStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 1);
  service.flush();
  EXPECT_EQ(requests[0].status(), RequestStatus::kOk);
  EXPECT_EQ(requests[1].status(), RequestStatus::kOk);
  EXPECT_EQ(service.stats().completed, 2);
}

TEST(ServeAdmission, ExpiredDeadlineShedsAtBatchAssembly) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                7);
  ServiceConfig sc;
  sc.manual = true;
  sc.default_deadline_us = 50;
  SimClock clock;
  Service service(sc, &clock);

  Request late;
  late.model = model.get();
  late.input = make_input(3, 10, 14, 0);
  Request fresh;
  fresh.model = model.get();
  fresh.input = make_input(3, 10, 14, 1);

  ASSERT_TRUE(service.submit(&late));
  clock.advance_by(60'000);  // past the 50us default deadline
  ASSERT_TRUE(service.submit(&fresh));
  service.flush();
  EXPECT_EQ(late.status(), RequestStatus::kShed);
  EXPECT_EQ(fresh.status(), RequestStatus::kOk);
  EXPECT_EQ(service.stats().shed, 1);
  EXPECT_EQ(service.stats().completed, 1);
}

TEST(ServeAdmission, ZeroDeadlineNeverSheds) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                8);
  ServiceConfig sc;
  sc.manual = true;  // no default deadline configured
  SimClock clock;
  Service service(sc, &clock);
  Request request;
  request.model = model.get();
  request.input = make_input(3, 10, 14, 0);
  ASSERT_TRUE(service.submit(&request));
  clock.advance_by(3'600'000'000'000);  // an hour of sim time
  service.flush();
  EXPECT_EQ(request.status(), RequestStatus::kOk);
}

// ---- Adaptive compression ---------------------------------------------------

TEST(ServeCompression, AdaptiveCompressionServesFromPlanInsideBatcher) {
  // compression_ratio > 1 compiles like any config: the quad-tree partition
  // is a runtime value of the plan, so one batch of same-shape inputs with
  // different partitions replays one plan and matches eager bit for bit.
  model::ModelConfig config = serving_config(model::Architecture::kReslim);
  config.compression_ratio = 2.0f;
  const auto model = make_model(config, 9);
  const auto& reslim = dynamic_cast<const model::ReslimModel&>(*model);

  std::vector<Tensor> inputs;
  std::vector<std::int64_t> leaf_counts;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    inputs.push_back(Tensor::uniform(Shape{3, 16, 16}, rng, -1.0f, 1.0f));
    autograd::InferenceModeScope no_tape;
    model::ForwardStats stats;
    (void)reslim.forward(inputs.back(), &stats);
    leaf_counts.push_back(stats.tokens_after_compression);
  }
  ASSERT_TRUE(leaf_counts[0] != leaf_counts[1] ||
              leaf_counts[1] != leaf_counts[2])
      << "the batch should mix partitions";
  ASSERT_NE(model->compiled_for(inputs[0]), nullptr);

  kernels::set_max_threads(2);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 3;
  SimClock clock;
  std::deque<Request> requests;
  Service service(sc, &clock);
  for (const Tensor& input : inputs) {
    requests.emplace_back();
    requests.back().model = model.get();
    requests.back().input = input;
    ASSERT_TRUE(service.submit(&requests.back()));
  }
  service.flush();
  kernels::set_max_threads(0);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(requests[i].status(), RequestStatus::kOk);
    EXPECT_EQ(requests[i].batch_size, 3);
    EXPECT_TRUE(bitwise_equal(requests[i].output,
                              eager_reference(*model, inputs[i])))
        << "request " << i;
  }
  EXPECT_EQ(service.stats().batches, 1);
  EXPECT_EQ(service.stats().eager_fallback_batches, 0);
}

// ---- Warmup / shutdown --------------------------------------------------------

TEST(ServeLifecycle, WarmPoolsExecutorsForEveryConfig) {
  ServiceConfig sc;
  sc.manual = true;
  SimClock clock;
  Service service(sc, &clock);
  const Tensor example = make_input(3, 10, 14, 0);

  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                10);
  service.warm(*model, example, 4);
  EXPECT_GE(model->compiled_for(example)->pooled_executors(), 4u);

  model::ModelConfig compressed = serving_config(model::Architecture::kReslim);
  compressed.compression_ratio = 2.0f;
  const auto compressed_model = make_model(compressed, 11);
  service.warm(*compressed_model, example, 4);
  EXPECT_GE(compressed_model->compiled_for(example)->pooled_executors(), 4u);

  // A shape the model cannot compile throws instead of warming nothing.
  EXPECT_THROW(service.warm(*compressed_model, make_input(5, 10, 14, 0), 4),
               Error);
}

TEST(ServeLifecycle, StopDrainsStagedWork) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                12);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 8;
  sc.max_wait_us = 1'000'000;
  SimClock clock;
  Service service(sc, &clock);
  Request request;
  request.model = model.get();
  request.input = make_input(3, 10, 14, 0);
  ASSERT_TRUE(service.submit(&request));
  service.stop();
  EXPECT_EQ(request.status(), RequestStatus::kOk);

  Request after;
  after.model = model.get();
  after.input = make_input(3, 10, 14, 1);
  EXPECT_FALSE(service.submit(&after)) << "stopped service must reject";
  EXPECT_EQ(after.status(), RequestStatus::kRejected);
}

TEST(ServeLifecycle, StopWithoutDrainRejectsStagedWork) {
  // Manual-mode stop() and the worker's no-drain shutdown share one
  // rejection path, so both bump serve/rejected once per request.
  obs::set_enabled(true);
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                13);
  ServiceConfig sc;
  sc.manual = true;
  sc.max_batch = 8;
  sc.max_wait_us = 1'000'000;
  sc.drain_on_stop = false;
  SimClock clock;
  Service service(sc, &clock);
  std::deque<Request> requests(3);
  for (Request& request : requests) {
    request.model = model.get();
    request.input = make_input(3, 10, 14, 0);
    ASSERT_TRUE(service.submit(&request));
  }
  const std::int64_t before = obs::counter("serve/rejected").value();
  service.stop();
  const std::int64_t after = obs::counter("serve/rejected").value();
  const bool counted = obs::enabled();  // false in ORBIT2_OBS=OFF builds
  obs::set_enabled(false);
  for (const Request& request : requests) {
    EXPECT_EQ(request.status(), RequestStatus::kRejected);
  }
  EXPECT_EQ(service.stats().rejected, 3);
  if (counted) {
    EXPECT_EQ(after - before, 3);
  }
}

// ---- Failing requests --------------------------------------------------------

/// Two 5-channel requests against a 3-channel model (the model throws on
/// them), one valid request of another shape alongside, and one valid
/// request submitted after the failures.
struct FailureMix {
  Request bad[2];
  Request alongside;
  Request after;

  explicit FailureMix(const model::Downscaler& m) {
    for (Request& request : bad) {
      request.model = &m;
      request.input = make_input(5, 10, 14, 0);
    }
    alongside.model = &m;
    alongside.input = make_input(3, 12, 20, 1);
    after.model = &m;
    after.input = make_input(3, 10, 14, 2);
  }
};

void run_failure_mix_manual(const model::Downscaler& m) {
  ServiceConfig sc;
  sc.manual = true;
  SimClock clock;
  FailureMix mix(m);  // outlives the service, which holds its pointers
  Service service(sc, &clock);
  for (Request& request : mix.bad) ASSERT_TRUE(service.submit(&request));
  ASSERT_TRUE(service.submit(&mix.alongside));
  service.flush();
  for (const Request& request : mix.bad) {
    EXPECT_EQ(request.status(), RequestStatus::kFailed);
  }
  EXPECT_EQ(mix.alongside.status(), RequestStatus::kOk);
  ASSERT_TRUE(service.submit(&mix.after));
  service.flush();
  EXPECT_EQ(mix.after.status(), RequestStatus::kOk);
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.completed, 2);
}

TEST(ServeFailure, ThrowingRequestsFailInManualMode) {
  // Compiled path: plan resolution throws for the bad shape.
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                16);
  run_failure_mix_manual(*model);
}

TEST(ServeFailure, ThrowingCompressedRequestsFailInManualMode) {
  // Compressed Reslim compiles like any config, so its bad shapes fail at
  // plan resolution too.
  model::ModelConfig compressed = serving_config(model::Architecture::kReslim);
  compressed.compression_ratio = 2.0f;
  const auto model = make_model(compressed, 17);
  run_failure_mix_manual(*model);

  // Degenerate grids: empty and rank-2 (the forward rejects both) and
  // all-NaN, which may run or throw, but must end in one terminal status.
  Request degenerate[3];
  degenerate[0].input = Tensor(Shape{3, 0, 0});
  degenerate[1].input = make_input(3, 10, 14, 0).reshape(Shape{3, 140});
  degenerate[2].input =
      Tensor::full(Shape{3, 10, 14}, std::numeric_limits<float>::quiet_NaN());
  Request after;
  after.model = model.get();
  after.input = make_input(3, 10, 14, 3);
  ServiceConfig sc;
  sc.manual = true;
  SimClock clock;
  Service service(sc, &clock);  // after the requests, which it points to
  for (Request& request : degenerate) {
    request.model = model.get();
    ASSERT_TRUE(service.submit(&request));
  }
  service.flush();
  EXPECT_EQ(degenerate[0].status(), RequestStatus::kFailed);
  EXPECT_EQ(degenerate[1].status(), RequestStatus::kFailed);
  const RequestStatus nan_status = degenerate[2].status();
  EXPECT_TRUE(nan_status == RequestStatus::kOk ||
              nan_status == RequestStatus::kFailed);
  if (nan_status == RequestStatus::kOk) {
    EXPECT_TRUE(bitwise_equal(degenerate[2].output,
                              eager_reference(*model, degenerate[2].input)));
  }

  // The service keeps serving, from the plan.
  ASSERT_TRUE(service.submit(&after));
  service.flush();
  ASSERT_EQ(after.status(), RequestStatus::kOk);
  EXPECT_TRUE(
      bitwise_equal(after.output, eager_reference(*model, after.input)));

  // Each request was counted under exactly one terminal status.
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed + stats.failed, 4);
  EXPECT_EQ(stats.shed + stats.rejected, 0);
  EXPECT_EQ(stats.eager_fallback_batches, 0);
}

TEST(ServeFailure, ThrowingRequestsFailInThreadedMode) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                18);
  ServiceConfig sc;
  sc.max_batch = 4;
  sc.max_wait_us = 200;
  FailureMix mix(*model);  // outlives the service, which holds its pointers
  Service service(sc);
  for (Request& request : mix.bad) ASSERT_TRUE(service.submit(&request));
  ASSERT_TRUE(service.submit(&mix.alongside));
  for (const Request& request : mix.bad) {
    EXPECT_EQ(request.wait(), RequestStatus::kFailed);
  }
  EXPECT_EQ(mix.alongside.wait(), RequestStatus::kOk);
  // The worker survived the failures and keeps serving.
  ASSERT_TRUE(service.submit(&mix.after));
  EXPECT_EQ(mix.after.wait(), RequestStatus::kOk);
  service.stop();
  EXPECT_EQ(service.stats().failed, 2);
}

// ---- Threaded mode -----------------------------------------------------------

TEST(ServeThreaded, ConcurrentSubmittersAllServedBitwise) {
  const auto model = make_model(serving_config(model::Architecture::kReslim),
                                14);
  const Tensor input = make_input(3, 10, 14, 0);
  const Tensor expected = eager_reference(*model, input);

  ServiceConfig sc;
  sc.max_batch = 4;
  sc.max_wait_us = 200;
  Service service(sc);

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 8;
  std::deque<Request> requests(kProducers * kPerProducer);
  for (Request& request : requests) {
    request.model = model.get();
    request.input = input;
  }
  std::vector<std::thread> producers;
  std::atomic<std::size_t> accepted{0};
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        if (service.submit(&requests[p * kPerProducer + i])) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (Request& request : requests) request.wait();
  service.stop();

  std::size_t ok = 0;
  for (const Request& request : requests) {
    if (request.status() == RequestStatus::kOk) {
      EXPECT_TRUE(bitwise_equal(request.output, expected));
      ++ok;
    }
  }
  EXPECT_EQ(ok, accepted.load());
  EXPECT_EQ(ok, kProducers * kPerProducer) << "queue_capacity=256 fits all";
}

}  // namespace
}  // namespace orbit2::serve
