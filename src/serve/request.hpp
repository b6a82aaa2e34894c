#pragma once
// Serving request: one downscale call moving through the service.
//
// Requests are caller-owned and reusable: the service never allocates or
// frees them, it only moves pointers through the bounded queue and the
// batcher. A caller fills {model, input, deadline}, submits, and waits (or
// polls in manual mode); the service fills {output, timestamps, status}.
// Reusing a request object whose `output` already has the right shape makes
// the steady-state serve path allocation-free (see docs/API.md).
//
// Lifetime contract: an accepted request must outlive its terminal status.
// The service keeps the raw pointer until it publishes a terminal status,
// so destroy a request only after done() — or after Service::stop(), which
// drains or rejects everything still staged.
//
// The completion handshake (mutex + condition variable per request) is part
// of the sanctioned src/serve threading exception: it signals readiness of a
// result produced by the deterministic kernel paths, never numerical work.

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "model/downscaler.hpp"
#include "tensor/tensor.hpp"

namespace orbit2::serve {

enum class RequestStatus : std::uint8_t {
  kIdle,      // constructed or rearmed, not yet submitted
  kQueued,    // accepted; waiting in queue / batcher
  kOk,        // executed; `output` holds the prediction
  kShed,      // deadline expired before execution (explicit load shedding)
  kRejected,  // admission refused: queue full or service stopped
  kFailed,    // the model threw on this request (e.g. a shape it rejects)
};

/// True for statuses the service will not change again.
inline bool is_terminal(RequestStatus s) {
  return s == RequestStatus::kOk || s == RequestStatus::kShed ||
         s == RequestStatus::kRejected || s == RequestStatus::kFailed;
}

class Request {
 public:
  Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  // ---- Caller-filled fields (set before submit) ------------------------

  const model::Downscaler* model = nullptr;
  Tensor input;  // [Cin, h, w]
  /// Absolute deadline on the service clock; 0 uses the service default.
  std::int64_t deadline_ns = 0;

  // ---- Service-filled fields -------------------------------------------

  /// Prediction [Cout, h*up, w*up]. Reused across submissions when the
  /// shape matches (zero-allocation steady state).
  Tensor output;
  std::int64_t enqueue_ns = 0;    // admission timestamp
  std::int64_t done_ns = 0;       // completion timestamp
  std::uint64_t arrival_seq = 0;  // service-wide admission order
  std::int64_t batch_size = 0;    // size of the batch this request rode in
  bool served_eager = false;      // capture-fallback path was taken

  // ---- Completion handshake --------------------------------------------

  RequestStatus status() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }

  bool done() const { return is_terminal(status()); }

  /// Blocks until the service publishes a terminal status (threaded mode).
  RequestStatus wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return is_terminal(status_); });
    return status_;
  }

  /// Completion latency, valid once done.
  std::int64_t latency_ns() const { return done_ns - enqueue_ns; }

  /// Resets the lifecycle for resubmission; keeps input/output buffers.
  void rearm() {
    std::lock_guard<std::mutex> lock(mutex_);
    status_ = RequestStatus::kIdle;
    enqueue_ns = 0;
    done_ns = 0;
    batch_size = 0;
    served_eager = false;
  }

  // ---- Service-side transitions (not for callers) -----------------------

  void mark_queued() { publish(RequestStatus::kQueued); }

  void complete(RequestStatus terminal, std::int64_t now_ns) {
    done_ns = now_ns;
    publish(terminal);
  }

 private:
  void publish(RequestStatus s) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      status_ = s;
    }
    if (is_terminal(s)) cv_.notify_all();
  }

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  RequestStatus status_ = RequestStatus::kIdle;
};

/// Dynamic-batching compatibility class: requests merge into one batched
/// replay only when they target the same model instance with the same input
/// shape (-> the same compiled plan in that model's PlanCache).
struct BatchKey {
  const model::Downscaler* model = nullptr;
  Shape shape;

  bool operator==(const BatchKey& other) const {
    return model == other.model && shape == other.shape;
  }
};

inline BatchKey batch_key(const Request& request) {
  return BatchKey{request.model, request.input.shape()};
}

}  // namespace orbit2::serve
