#include "serve/service.hpp"

#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "graph/compiled.hpp"

namespace orbit2::serve {

namespace {

const Clock& default_clock() {
  static const RealClock clock;
  return clock;
}

}  // namespace

Service::Service(ServiceConfig config, const Clock* clock)
    : config_(config),
      clock_(clock != nullptr ? clock : &default_clock()),
      queue_(config.queue_capacity),
      batcher_(BatcherConfig{config.max_batch, config.max_wait_us * 1000}) {
  ORBIT2_REQUIRE(config_.workers >= 1, "service needs at least one worker");
  if (!config_.manual) {
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

Service::~Service() { stop(); }

bool Service::submit(Request* request) {
  ORBIT2_REQUIRE(request != nullptr && request->model != nullptr,
                 "submit() needs a request with a model");
  ORBIT2_OBS_SPAN("serve/enqueue", "serve");
  const std::int64_t now = clock_->now_ns();
  request->enqueue_ns = now;
  request->arrival_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (request->deadline_ns == 0 && config_.default_deadline_us > 0) {
    request->deadline_ns = now + config_.default_deadline_us * 1000;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  request->mark_queued();
  if (!queue_.try_push(request)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ORBIT2_OBS_COUNT("serve/rejected", 1);
    request->complete(RequestStatus::kRejected, clock_->now_ns());
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Gauge& depth = obs::gauge("serve/queue_depth");
    depth.set(static_cast<double>(queue_.size()));
  }
  return true;
}

void Service::drain_queue_locked() {
  Request* incoming = nullptr;
  while (queue_.try_pop(incoming)) batcher_.stage(incoming);
}

void Service::fail(Request& request, std::int64_t batch_size) {
  request.batch_size = batch_size;
  failed_.fetch_add(1, std::memory_order_relaxed);
  ORBIT2_OBS_COUNT("serve/failed", 1);
  request.complete(RequestStatus::kFailed, clock_->now_ns());
}

void Service::reject_staged_locked(std::vector<Request*>& batch) {
  while (batcher_.collect(clock_->now_ns(), /*force=*/true, batch) > 0) {
    const std::int64_t now = clock_->now_ns();
    for (Request* request : batch) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ORBIT2_OBS_COUNT("serve/rejected", 1);
      request->complete(RequestStatus::kRejected, now);
    }
  }
}

void Service::dispatch(std::vector<Request*>& batch) {
  // Deadline shedding happens at batch assembly: expired requests leave the
  // batch with an explicit kShed instead of consuming compute.
  const std::int64_t now = clock_->now_ns();
  std::size_t live = 0;
  for (Request* request : batch) {
    if (request->deadline_ns > 0 && now > request->deadline_ns) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      ORBIT2_OBS_COUNT("serve/shed", 1);
      request->complete(RequestStatus::kShed, now);
      continue;
    }
    batch[live++] = request;
  }
  batch.resize(live);
  if (batch.empty()) return;
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  batches_.fetch_add(1, std::memory_order_relaxed);

  // Resolve the compiled plan once, on this thread: every request in the
  // batch shares a BatchKey, so one lookup covers all of them, and plan
  // *compilation* (which allocates and uses thread-local inference scopes)
  // must not happen inside the sample-parallel loop. A shape the model
  // rejects fails the whole batch.
  const Request& head = *batch.front();
  std::shared_ptr<const graph::CompiledShape> compiled;
  try {
    compiled = head.model->compiled_for(head.input);
  } catch (...) {
    for (Request* request : batch) fail(*request, n);
    return;
  }
  const bool use_plan = compiled != nullptr && compiled->valid();
  if (!use_plan) {
    eager_fallback_batches_.fetch_add(1, std::memory_order_relaxed);
    ORBIT2_OBS_COUNT("serve/eager_fallback", 1);
  }

  {
    ORBIT2_OBS_SPAN_ARG("serve/batch", "serve", "batch_size", n);
    // Sample-parallel replay: one batch item per chunk, inline and in order
    // at one kernel thread. Each replay's nested kernels run inline-serial
    // (the kernel layer's region rule), so the bits match a sequential eager
    // call exactly, at any kernel thread count. A request that throws completes
    // kFailed on the spot and leaves the batch; the others still run.
    kernels::parallel_for(n, /*grain=*/1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        Request*& slot = batch[static_cast<std::size_t>(i)];
        Request& request = *slot;
        try {
          if (use_plan) {
            compiled->run_into(request.input, request.output);
          } else {
            // predict_field enters its own thread-local inference scope.
            request.output = request.model->predict_field(request.input);
            request.served_eager = true;
          }
        } catch (...) {
          slot = nullptr;  // completed here; the loop below skips it
          fail(request, n);
        }
      }
    });
  }

  const std::int64_t done = clock_->now_ns();
  for (Request* request : batch) {
    if (request == nullptr) continue;  // failed above
    request->batch_size = n;
    completed_.fetch_add(1, std::memory_order_relaxed);
    request->complete(RequestStatus::kOk, done);
  }
  if (obs::enabled()) {
    static obs::Histogram& sizes = obs::histogram("serve/batch_size");
    sizes.observe(static_cast<double>(n));
  }
}

void Service::worker_loop() {
  std::vector<Request*> batch;
  for (;;) {
    std::int64_t wait_until = Batcher::kNever;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      drain_queue_locked();
      if (batcher_.collect(clock_->now_ns(), /*force=*/false, batch) == 0) {
        if (queue_.closed()) {
          if (batcher_.staged() == 0) return;
          // Shutdown with work still staged: drain it as final (forced)
          // batches, or reject every survivor explicitly.
          if (!config_.drain_on_stop) {
            reject_staged_locked(batch);
            return;
          }
          batcher_.collect(clock_->now_ns(), /*force=*/true, batch);
        } else {
          wait_until = batcher_.next_ready_ns();
        }
      }
    }
    if (!batch.empty()) {
      dispatch(batch);
      continue;
    }
    if (wait_until == Batcher::kNever) {
      // Nothing staged: sleep until an arrival (or close) wakes us.
      Request* incoming = nullptr;
      if (queue_.pop_wait(incoming)) {
        std::lock_guard<std::mutex> lock(mutex_);
        batcher_.stage(incoming);
      }
    } else {
      // Partial batch aging: sleep at most until its window expires.
      const std::int64_t timeout = wait_until - clock_->now_ns();
      Request* incoming = nullptr;
      if (timeout > 0 && queue_.pop_wait(incoming, timeout)) {
        std::lock_guard<std::mutex> lock(mutex_);
        batcher_.stage(incoming);
      }
    }
  }
}

std::size_t Service::pump(bool force) {
  ORBIT2_REQUIRE(config_.manual, "poll()/flush() require manual mode");
  std::size_t dispatched = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      drain_queue_locked();
      if (batcher_.collect(clock_->now_ns(), force, pump_batch_) == 0) break;
    }
    dispatch(pump_batch_);
    if (!pump_batch_.empty()) ++dispatched;
  }
  return dispatched;
}

std::size_t Service::poll() { return pump(/*force=*/false); }

std::size_t Service::flush() { return pump(/*force=*/true); }

std::int64_t Service::next_ready_ns() {
  ORBIT2_REQUIRE(config_.manual, "next_ready_ns() requires manual mode");
  std::lock_guard<std::mutex> lock(mutex_);
  drain_queue_locked();
  if (batcher_.has_full_class()) return clock_->now_ns();
  return batcher_.next_ready_ns();
}

void Service::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  if (config_.manual) {
    // Synchronous drain/reject on the caller's thread.
    if (config_.drain_on_stop) {
      pump(/*force=*/true);
    } else {
      std::lock_guard<std::mutex> lock(mutex_);
      drain_queue_locked();
      reject_staged_locked(pump_batch_);
    }
    return;
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool Service::warm(const model::Downscaler& model, const Tensor& example,
                   std::size_t count) {
  std::shared_ptr<const graph::CompiledShape> compiled =
      model.compiled_for(example);
  if (compiled == nullptr || !compiled->valid()) return false;
  compiled->warm(count);
  return true;
}

Service::Stats Service::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.eager_fallback_batches =
      eager_fallback_batches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace orbit2::serve
