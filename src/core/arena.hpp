#pragma once
// BufferArena: the planned buffer set backing a compiled inference plan.
//
// A plan's liveness analysis maps every temporary value to one of a small
// number of reusable slots; the arena materializes those slots as float
// buffers exactly once, at plan-build time. Replay then binds tensors onto
// the slots (shared storage, no copies) and performs zero steady-state heap
// allocations. Each slot is a full FloatStorage so it can back a Tensor's
// storage handle directly.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/float_storage.hpp"

namespace orbit2::core {

class BufferArena {
 public:
  /// Allocates one slot of `numel` floats (zero-filled) and records it.
  /// Bumps the `graph/alloc_bytes` obs counter by the slot's byte size.
  std::shared_ptr<FloatStorage> add_buffer(std::int64_t numel);

  std::int64_t total_bytes() const { return total_bytes_; }
  std::size_t num_buffers() const { return buffers_.size(); }

 private:
  std::vector<std::shared_ptr<FloatStorage>> buffers_;
  std::int64_t total_bytes_ = 0;
};

}  // namespace orbit2::core
