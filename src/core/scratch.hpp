#pragma once
// Grow-only scratch buffers for kernels that keep per-thread working space.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace orbit2::core {

/// Grows `buffer` to hold `n` elements that start on a 64-byte cache line
/// and returns that start. Kernels that store and reload a scratch block
/// inside their inner loop ran up to twice as slow on an AVX-512 Xeon when
/// the block straddled cache lines; malloc's 16-byte alignment would leave
/// that to chance, per thread and per run. The buffer never shrinks, so
/// steady-state calls at a fixed shape allocate nothing.
template <typename T>
T* grow_aligned(std::vector<T>& buffer, std::int64_t n) {
  constexpr std::size_t kLine = 64;
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  const std::size_t want = static_cast<std::size_t>(n) + kLine / sizeof(T);
  if (buffer.size() < want) buffer.resize(want);
  void* start = buffer.data();
  std::size_t space = buffer.size() * sizeof(T);
  return static_cast<T*>(std::align(kLine, bytes, start, space));
}

}  // namespace orbit2::core
