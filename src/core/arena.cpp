#include "core/arena.hpp"

#include "core/error.hpp"
#include "core/obs.hpp"

namespace orbit2::core {

std::shared_ptr<FloatStorage> BufferArena::add_buffer(std::int64_t numel) {
  ORBIT2_REQUIRE(numel >= 0, "arena buffer numel must be >= 0, have " << numel);
  auto buffer =
      std::make_shared<FloatStorage>(static_cast<std::size_t>(numel), 0.0f);
  const auto bytes =
      static_cast<std::int64_t>(numel) *
      static_cast<std::int64_t>(sizeof(float));
  ORBIT2_OBS_COUNT("graph/alloc_bytes", bytes);
  total_bytes_ += bytes;
  buffers_.push_back(buffer);
  return buffer;
}

}  // namespace orbit2::core
