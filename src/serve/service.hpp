#pragma once
// Inference service: bounded admission -> dynamic batching -> batched
// compiled-plan replay.
//
// A Service owns the bounded MPMC queue (admission/backpressure edge), the
// Batcher (deterministic grouping policy), and the dispatch path that runs
// one batch as a sample-parallel replay of the model's compiled plan:
// `kernels::parallel_for(batch, /*grain=*/1)` over the batch items, each
// replaying the *same* cached plan through its own pooled executor. Nested
// kernels inside a replay run inline-serial (PR 3's region rule), so every
// sample's arithmetic is bit-identical to a sequential eager call — batching
// changes wall time, never bits.
//
// Two driving modes share all policy code:
//
//   * threaded (default): `workers` background threads block on the queue,
//     batch, and dispatch; callers Request::wait(). Uses a RealClock.
//   * manual (config.manual): no threads. The caller pumps poll()/flush()
//     on a single thread, usually against a SimClock — every accept/shed/
//     reject decision becomes a pure function of the arrival schedule,
//     which the golden load-replay test pins.
//
// Admission policy: try_push on the bounded queue; a full (or stopped)
// queue rejects immediately (kRejected). Deadline policy: requests whose
// absolute deadline passed before dispatch are shed (kShed) at batch
// assembly, never silently dropped. Failure policy: a request the model
// throws on (e.g. a channel count it does not take) completes kFailed and
// the rest of its batch still runs; the worker keeps serving. Each outcome
// is an explicit terminal status plus an obs counter.
//
// Threading here is a sanctioned exception to threading-outside-core
// (tools/orbit2_analyze_suppressions.txt): the service moves request
// pointers and signals completion; all numerical work stays on the
// deterministic kernel paths.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"

namespace orbit2::serve {

struct ServiceConfig {
  /// Bounded admission queue depth; a full queue rejects (backpressure).
  std::size_t queue_capacity = 256;
  /// Largest merged batch (see BatcherConfig::max_batch).
  std::int64_t max_batch = 8;
  /// Batching window: how long a lone request waits for companions (us).
  std::int64_t max_wait_us = 0;
  /// Deadline applied to requests submitted with deadline_ns == 0; 0 means
  /// no default (such requests never shed).
  std::int64_t default_deadline_us = 0;
  /// Batcher/dispatch threads (threaded mode). Dispatch itself fans out
  /// across kernel threads, so 1 worker saturates small models.
  std::size_t workers = 1;
  /// No threads: the owner pumps poll()/flush() (deterministic replay).
  bool manual = false;
  /// stop(): run remaining staged requests (true) or reject them (false).
  bool drain_on_stop = true;
};

class Service {
 public:
  /// `clock` defaults to a process-wide RealClock; pass a SimClock (and set
  /// config.manual) for deterministic replay. The clock must outlive the
  /// service.
  explicit Service(ServiceConfig config, const Clock* clock = nullptr);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits `request` (caller-owned, status kIdle). Returns true and marks
  /// it kQueued on success; false and kRejected when the queue is full or
  /// the service stopped. Never blocks, never allocates.
  ///
  /// Lifetime: the service holds the raw pointer until the request reaches
  /// a terminal status (kOk/kShed/kRejected/kFailed). An accepted request
  /// must stay alive until then — wait()/poll() it to completion, or stop()
  /// the service first (the destructor stops too, but members declared
  /// after the Service are destroyed before it runs).
  bool submit(Request* request);

  /// Manual mode: stages queued arrivals and dispatches ready batches until
  /// none are ready. Returns the number of batches dispatched.
  std::size_t poll();

  /// Manual mode: poll(), then force-launch everything still staged.
  std::size_t flush();

  /// Manual mode: when the next batch becomes launchable — now_ns if a
  /// class is already full, the earliest aging instant otherwise, or
  /// Batcher::kNever when nothing is pending. Stages queued arrivals first.
  std::int64_t next_ready_ns();

  /// Stops admission, then drains or rejects staged work per
  /// config.drain_on_stop, then joins workers. Idempotent.
  void stop();

  /// Pre-compiles `model`'s plan for `example`'s shape and pools `count`
  /// executors, so steady-state serving performs zero heap allocations.
  /// Returns false when the shape falls back to eager (nothing to warm).
  bool warm(const model::Downscaler& model, const Tensor& example,
            std::size_t count);

  struct Stats {
    std::int64_t submitted = 0;
    std::int64_t accepted = 0;
    std::int64_t rejected = 0;  // admission refusals (queue full / stopped)
    std::int64_t shed = 0;      // deadline expirations at batch assembly
    std::int64_t completed = 0;
    std::int64_t failed = 0;  // the model threw on the request (kFailed)
    std::int64_t batches = 0;
    std::int64_t eager_fallback_batches = 0;
  };
  Stats stats() const;

  std::size_t queue_depth() const { return queue_.size(); }
  const ServiceConfig& config() const { return config_; }

 private:
  void worker_loop();
  /// Stages every queued arrival into the batcher. Caller holds mutex_.
  void drain_queue_locked();
  /// No-drain shutdown: completes every staged request kRejected, using
  /// `batch` as scratch. Caller holds mutex_.
  void reject_staged_locked(std::vector<Request*>& batch);
  /// Sheds expired requests, then runs the survivors as one sample-parallel
  /// compiled replay (or eager fallback). Every survivor ends kOk or
  /// kFailed. Called with mutex_ released.
  void dispatch(std::vector<Request*>& batch);
  /// Completes `request` kFailed (the model threw on it).
  void fail(Request& request, std::int64_t batch_size);
  std::size_t pump(bool force);

  ServiceConfig config_;
  const Clock* clock_;
  BoundedMpmcQueue<Request*> queue_;

  // Batcher state: serialized by mutex_ across workers (trivially held in
  // manual mode). Dispatch runs outside the lock so staging keeps flowing.
  std::mutex mutex_;
  Batcher batcher_;
  // Manual-mode batch scratch (pump is single-threaded); grow-only so the
  // steady-state poll()/flush() path never touches the heap.
  std::vector<Request*> pump_batch_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> next_seq_{0};

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> rejected_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> eager_fallback_batches_{0};
};

}  // namespace orbit2::serve
