#pragma once
// FloatStorage: the float buffer type behind every Tensor and arena slot.
//
// A std::vector whose allocator leaves value-less construction a no-op, so
// `FloatStorage(n)` and `resize(n)` allocate without writing the elements.
// Kernels that overwrite their whole output use that to skip a zero-fill
// pass (Tensor::uninitialized); `FloatStorage(n, 0.0f)` still zero-fills.

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace orbit2::core {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  static_assert(std::is_trivially_default_constructible_v<T>,
                "skipping construction is only sound for trivial types");
  using std::allocator<T>::allocator;

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  /// Value-less construction writes nothing: the element keeps whatever
  /// bytes the allocation holds.
  template <typename U>
  void construct(U*) noexcept {}

  template <typename U, typename Arg, typename... Args>
  void construct(U* p, Arg&& arg, Args&&... args) {
    std::construct_at(p, std::forward<Arg>(arg), std::forward<Args>(args)...);
  }
};

using FloatStorage = std::vector<float, DefaultInitAllocator<float>>;

}  // namespace orbit2::core
