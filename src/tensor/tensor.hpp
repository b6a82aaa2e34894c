#pragma once
// Dense fp32 tensor.
//
// Design: contiguous row-major storage behind a shared_ptr, value-semantic
// handles, rank <= 4. Views (reshape) share storage; all mutating ops are
// explicit. This is deliberately a small, predictable core — the autograd
// layer above it builds differentiable ops from these kernels.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "core/debug_check.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"

namespace orbit2 {

class Tensor {
 public:
  /// Empty rank-0 tensor holding a single zero.
  Tensor();

  /// Uninitialized-to-zero tensor of the given shape.
  explicit Tensor(Shape shape);

  // ---- Factories -----------------------------------------------------

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(shape, 1.0f); }
  /// N(0, stddev^2) entries drawn from `rng`.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// U[lo, hi) entries drawn from `rng`.
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi);
  /// Copies `values` (size must equal shape.numel()).
  static Tensor from_vector(Shape shape, const std::vector<float>& values);
  /// Rank-0 scalar.
  static Tensor scalar(float value);
  /// Wraps an existing storage buffer (size must equal shape.numel())
  /// without copying; the tensor shares ownership. This is how the compiled
  /// inference executor binds planned arena slots as tensor values.
  static Tensor with_storage(Shape shape,
                             std::shared_ptr<std::vector<float>> storage);

  // ---- Structure -----------------------------------------------------

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  std::int64_t dim(int axis) const { return shape_[axis]; }
  std::int64_t numel() const { return shape_.numel(); }

  /// View with a new shape of identical numel; shares storage.
  Tensor reshape(Shape new_shape) const;

  /// View of the first shape.numel() elements under `shape`; shares storage
  /// and allocates nothing. The compiled executor runs an op on the live
  /// leading rows of a planned buffer through it.
  Tensor prefix(Shape shape) const;

  /// Deep copy with independent storage.
  Tensor clone() const;

  /// True if two handles share the same storage buffer.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  // ---- Element access -------------------------------------------------

  // In ORBIT2_DEBUG_CHECKS builds data() returns a bounds-checked span so
  // raw kernel loops fail loudly on out-of-bounds indices; release builds
  // get a plain std::span with zero overhead.
#if ORBIT2_DEBUG_CHECKS_ENABLED
  using span = debug::CheckedSpan<float>;
  using const_span = debug::CheckedSpan<const float>;
#else
  using span = std::span<float>;
  using const_span = std::span<const float>;
#endif

  // Spans cover numel() elements: a prefix() view sees only its own.
  span data() { return {storage_->data(), static_cast<std::size_t>(numel())}; }
  const_span data() const {
    return {storage_->data(), static_cast<std::size_t>(numel())};
  }

  float& operator[](std::int64_t flat_index) {
    ORBIT2_CHECK(flat_index >= 0 && flat_index < numel(),
                 "flat index " << flat_index << " out of " << numel());
    return (*storage_)[static_cast<std::size_t>(flat_index)];
  }
  float operator[](std::int64_t flat_index) const {
    ORBIT2_CHECK(flat_index >= 0 && flat_index < numel(),
                 "flat index " << flat_index << " out of " << numel());
    return (*storage_)[static_cast<std::size_t>(flat_index)];
  }

  float& at(std::int64_t i0) { return (*this)[flatten({i0})]; }
  float& at(std::int64_t i0, std::int64_t i1) { return (*this)[flatten({i0, i1})]; }
  float& at(std::int64_t i0, std::int64_t i1, std::int64_t i2) {
    return (*this)[flatten({i0, i1, i2})];
  }
  float& at(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3) {
    return (*this)[flatten({i0, i1, i2, i3})];
  }
  float at(std::int64_t i0) const { return (*this)[flatten({i0})]; }
  float at(std::int64_t i0, std::int64_t i1) const { return (*this)[flatten({i0, i1})]; }
  float at(std::int64_t i0, std::int64_t i1, std::int64_t i2) const {
    return (*this)[flatten({i0, i1, i2})];
  }
  float at(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3) const {
    return (*this)[flatten({i0, i1, i2, i3})];
  }

  /// Value of a rank-0 / single-element tensor.
  float item() const {
    ORBIT2_REQUIRE(numel() == 1, "item() requires 1 element, have " << numel());
    return (*storage_)[0];
  }

  // ---- Elementwise (allocate a result) ---------------------------------

  Tensor add(const Tensor& other) const;
  Tensor sub(const Tensor& other) const;
  Tensor mul(const Tensor& other) const;
  Tensor div(const Tensor& other) const;
  Tensor add_scalar(float value) const;
  Tensor mul_scalar(float value) const;
  /// Applies fn to every element.
  Tensor map(const std::function<float(float)>& fn) const;

  // ---- In-place --------------------------------------------------------

  void fill(float value);
  void add_inplace(const Tensor& other);
  void scale_inplace(float value);
  /// this += alpha * other (axpy).
  void axpy_inplace(float alpha, const Tensor& other);
  /// Rounds every element through bf16 storage (mixed-precision emulation).
  void round_to_bf16_inplace();

  // ---- Reductions -------------------------------------------------------

  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Sum of squared elements.
  float sum_squares() const;
  /// Largest absolute element (0 for empty).
  float abs_max() const;

  // ---- Shape surgery ------------------------------------------------------

  /// Copy of rows [start, start+len) along `axis`.
  Tensor slice(int axis, std::int64_t start, std::int64_t len) const;
  /// Concatenates along `axis`; all parts must agree on other dims.
  static Tensor concat(int axis, const std::vector<Tensor>& parts);
  /// Rank-2 transpose copy.
  Tensor transpose2d() const;

 private:
  std::int64_t flatten(std::initializer_list<std::int64_t> idx) const;

  Shape shape_;
  std::shared_ptr<std::vector<float>> storage_;
};

/// Checks same-shape precondition shared by binary elementwise ops.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

}  // namespace orbit2
