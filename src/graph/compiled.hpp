#pragma once
// Serving façade over capture/plan/replay.
//
// A model owns one PlanCache; predict-time callers hand it the input and a
// callback that runs the eager forward (under the installed CaptureScope).
// The cache compiles at most one plan per input shape, pools executors per
// plan so concurrent callers never share arena buffers, and returns a deep
// copy of the output. A capture that hits an unsupported op is cached as a
// null plan: callers fall back to eager without re-capturing every call.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/cache.hpp"
#include "core/object_pool.hpp"
#include "graph/executor.hpp"
#include "graph/plan.hpp"

namespace orbit2::graph {

/// A compiled plan plus a pool of idle executors for it.
class CompiledShape {
 public:
  explicit CompiledShape(std::shared_ptr<const Plan> plan)
      : plan_(std::move(plan)),
        pool_(std::make_unique<core::ObjectPool<Executor>>()) {}

  /// Null when the capture failed (eager fallback).
  const std::shared_ptr<const Plan>& plan() const { return plan_; }
  bool valid() const { return plan_ != nullptr; }

  /// Replays the plan on `input`; returns a tensor the caller owns.
  /// Thread-safe: each concurrent caller checks out its own executor.
  Tensor run(const Tensor& input) const;

  /// Replays the plan on `input`, copying the result into `out`. When `out`
  /// already has the output shape the copy reuses its storage, so a warmed
  /// caller (pooled executors, pre-sized response buffer) performs zero heap
  /// allocations — the serving layer's steady-state contract.
  void run_into(const Tensor& input, Tensor& out) const;

  /// Pre-builds `count` pooled executors (per-instance arenas sharing the
  /// plan's leaf weights), so the first `count` concurrent callers never
  /// construct one on the serving path.
  void warm(std::size_t count) const;

  /// Idle executors currently pooled (testing / capacity introspection).
  std::size_t pooled_executors() const { return pool_->size(); }

 private:
  std::shared_ptr<const Plan> plan_;
  // Behind unique_ptr so CompiledShape stays movable (the pool owns a mutex).
  std::unique_ptr<core::ObjectPool<Executor>> pool_;
};

/// Runs the model's eager forward for capture and returns its output value.
/// Invoked with the sink already installed as the thread's capture sink.
using CaptureForwardFn = std::function<Tensor(CaptureSink&)>;

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 16) : cache_(capacity) {}

  /// Compiled plan (or cached capture failure) for this input shape.
  /// `run_forward` executes the eager forward; it is called at most once
  /// per shape across the cache's lifetime.
  std::shared_ptr<const CompiledShape> get_or_compile(
      const Tensor& input, const CaptureForwardFn& run_forward);

 private:
  struct ShapeKey {
    Shape shape;
    bool operator==(const ShapeKey& other) const {
      return shape == other.shape;
    }
  };
  struct ShapeKeyHash {
    std::size_t operator()(const ShapeKey& key) const {
      // FNV-1a over rank then dims: content-based, address-free.
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
          h ^= (value >> (8 * byte)) & 0xffu;
          h *= 1099511628211ull;
        }
      };
      mix(static_cast<std::uint64_t>(key.shape.rank()));
      for (int i = 0; i < key.shape.rank(); ++i) {
        mix(static_cast<std::uint64_t>(key.shape[i]));
      }
      return static_cast<std::size_t>(h);
    }
  };

  LruCache<ShapeKey, CompiledShape, ShapeKeyHash> cache_;
};

}  // namespace orbit2::graph
