#include "tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/bf16.hpp"
#include "core/simd/simd.hpp"

namespace orbit2 {

Tensor::Tensor() : Tensor(Shape{}) {}

Tensor::Tensor(Shape shape)
    : shape_(shape),
      storage_(std::make_shared<core::FloatStorage>(
          static_cast<std::size_t>(shape.numel()), 0.0f)) {}

Tensor::Tensor(Shape shape, std::shared_ptr<core::FloatStorage> storage)
    : shape_(shape), storage_(std::move(storage)) {}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor out(shape, std::make_shared<core::FloatStorage>(
                        static_cast<std::size_t>(shape.numel())));
#if ORBIT2_DEBUG_CHECKS_ENABLED
  out.fill(std::bit_cast<float>(std::uint32_t{0x7fc0deadu}));
#endif
  return out;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(shape); }

Tensor Tensor::with_storage(Shape shape,
                            std::shared_ptr<core::FloatStorage> storage) {
  ORBIT2_REQUIRE(storage != nullptr, "with_storage: null storage");
  ORBIT2_REQUIRE(static_cast<std::int64_t>(storage->size()) == shape.numel(),
                 "with_storage: " << storage->size() << " floats for shape "
                                  << shape.numel());
  return Tensor(shape, std::move(storage));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor out(shape);
  out.fill(value);
  return out;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor out(shape);
  for (float& v : out.data()) v = static_cast<float>(rng.normal(0.0, stddev));
  return out;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor out(shape);
  for (float& v : out.data()) v = static_cast<float>(rng.uniform(lo, hi));
  return out;
}

Tensor Tensor::from_vector(Shape shape, const std::vector<float>& values) {
  ORBIT2_REQUIRE(static_cast<std::int64_t>(values.size()) == shape.numel(),
                 "from_vector: " << values.size() << " values for shape "
                                 << shape.to_string());
  Tensor out(shape);
  std::copy(values.begin(), values.end(), out.data().begin());
  return out;
}

Tensor Tensor::scalar(float value) {
  Tensor out(Shape{});
  (*out.storage_)[0] = value;
  return out;
}

Tensor Tensor::reshape(Shape new_shape) const {
  ORBIT2_REQUIRE(new_shape.numel() == numel(),
                 "reshape " << shape_.to_string() << " -> "
                            << new_shape.to_string() << " changes numel");
  Tensor view = *this;
  view.shape_ = new_shape;
  return view;
}

Tensor Tensor::prefix(Shape shape) const {
  ORBIT2_REQUIRE(shape.numel() <= numel(),
                 "prefix " << shape.to_string() << " exceeds "
                           << shape_.to_string());
  Tensor view = *this;
  view.shape_ = shape;
  return view;
}

Tensor Tensor::clone() const {
  Tensor out(shape_);
  std::copy(data().begin(), data().end(), out.data().begin());
  return out;
}

std::int64_t Tensor::flatten(std::initializer_list<std::int64_t> idx) const {
  ORBIT2_REQUIRE(static_cast<int>(idx.size()) == shape_.rank(),
                 "index rank " << idx.size() << " vs tensor rank "
                               << shape_.rank());
  std::int64_t flat = 0;
  int axis = 0;
  for (std::int64_t i : idx) {
    ORBIT2_CHECK(i >= 0 && i < shape_[axis],
                 "index " << i << " out of bounds on axis " << axis << " of "
                          << shape_.to_string());
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  ORBIT2_REQUIRE(a.shape() == b.shape(), op << ": shape mismatch "
                                            << a.shape().to_string() << " vs "
                                            << b.shape().to_string());
}

namespace {
Tensor binary_op(const Tensor& a, const Tensor& b, const char* name,
                 float (*fn)(float, float)) {
  check_same_shape(a, b, name);
  Tensor out(a.shape());
  auto pa = a.data();
  auto pb = b.data();
  auto po = out.data();
  for (std::size_t i = 0; i < po.size(); ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}
}  // namespace

Tensor Tensor::add(const Tensor& other) const {
  return binary_op(*this, other, "add", [](float x, float y) { return x + y; });
}
Tensor Tensor::sub(const Tensor& other) const {
  return binary_op(*this, other, "sub", [](float x, float y) { return x - y; });
}
Tensor Tensor::mul(const Tensor& other) const {
  return binary_op(*this, other, "mul", [](float x, float y) { return x * y; });
}
Tensor Tensor::div(const Tensor& other) const {
  return binary_op(*this, other, "div", [](float x, float y) { return x / y; });
}

Tensor Tensor::add_scalar(float value) const {
  return map([value](float x) { return x + value; });
}
Tensor Tensor::mul_scalar(float value) const {
  return map([value](float x) { return x * value; });
}

Tensor Tensor::map(const std::function<float(float)>& fn) const {
  Tensor out(shape_);
  auto in = data();
  auto po = out.data();
  for (std::size_t i = 0; i < po.size(); ++i) po[i] = fn(in[i]);
  return out;
}

void Tensor::fill(float value) {
  std::fill(data().begin(), data().end(), value);
}

void Tensor::add_inplace(const Tensor& other) {
  check_same_shape(*this, other, "add_inplace");
  simd::ops().add_f32(data().data(), other.data().data(), numel());
}

void Tensor::scale_inplace(float value) {
  simd::ops().scale_f32(data().data(), value, numel());
}

void Tensor::axpy_inplace(float alpha, const Tensor& other) {
  check_same_shape(*this, other, "axpy_inplace");
  simd::ops().axpy_f32(data().data(), other.data().data(), alpha, numel());
}

void Tensor::round_to_bf16_inplace() {
  simd::ops().bf16_round_f32(data().data(), numel());
}

float Tensor::sum() const {
  // Pairwise-ish accumulation in double for stability on long vectors.
  double acc = 0.0;
  for (float v : data()) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  ORBIT2_REQUIRE(numel() > 0, "mean of empty tensor");
  return static_cast<float>(static_cast<double>(sum()) / static_cast<double>(numel()));
}

float Tensor::min() const {
  ORBIT2_REQUIRE(numel() > 0, "min of empty tensor");
  float best = std::numeric_limits<float>::infinity();
  for (float v : data()) best = std::min(best, v);
  return best;
}

float Tensor::max() const {
  ORBIT2_REQUIRE(numel() > 0, "max of empty tensor");
  float best = -std::numeric_limits<float>::infinity();
  for (float v : data()) best = std::max(best, v);
  return best;
}

float Tensor::sum_squares() const {
  double acc = 0.0;
  for (float v : data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

float Tensor::abs_max() const {
  float best = 0.0f;
  for (float v : data()) best = std::max(best, std::fabs(v));
  return best;
}

Tensor Tensor::slice(int axis, std::int64_t start, std::int64_t len) const {
  ORBIT2_REQUIRE(axis >= 0 && axis < rank(), "slice axis " << axis);
  ORBIT2_REQUIRE(start >= 0 && len >= 0 && start + len <= shape_[axis],
                 "slice [" << start << ", " << start + len << ") out of dim "
                           << shape_[axis]);
  // outer = product of dims before axis, inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= shape_[i];
  for (int i = axis + 1; i < rank(); ++i) inner *= shape_[i];

  std::array<std::int64_t, Shape::kMaxRank> dims{};
  for (int i = 0; i < rank(); ++i) dims[static_cast<std::size_t>(i)] = shape_[i];
  dims[static_cast<std::size_t>(axis)] = len;
  Shape out_shape;
  switch (rank()) {
    case 1: out_shape = Shape{dims[0]}; break;
    case 2: out_shape = Shape{dims[0], dims[1]}; break;
    case 3: out_shape = Shape{dims[0], dims[1], dims[2]}; break;
    case 4: out_shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
    default: ORBIT2_FAIL("slice of rank-0 tensor");
  }

  Tensor out(out_shape);
  auto src = data();
  auto dst = out.data();
  const std::int64_t src_stride = shape_[axis] * inner;
  const std::int64_t dst_stride = len * inner;
  for (std::int64_t o = 0; o < outer; ++o) {
    const float* s = src.data() + o * src_stride + start * inner;
    float* d = dst.data() + o * dst_stride;
    std::copy(s, s + dst_stride, d);
  }
  return out;
}

Tensor Tensor::concat(int axis, const std::vector<Tensor>& parts) {
  ORBIT2_REQUIRE(!parts.empty(), "concat of zero tensors");
  const int rank = parts.front().rank();
  ORBIT2_REQUIRE(axis >= 0 && axis < rank, "concat axis " << axis);
  std::int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    ORBIT2_REQUIRE(p.rank() == rank, "concat rank mismatch");
    for (int i = 0; i < rank; ++i) {
      if (i != axis) {
        ORBIT2_REQUIRE(p.dim(i) == parts.front().dim(i),
                       "concat dim mismatch on axis " << i);
      }
    }
    axis_total += p.dim(axis);
  }

  std::array<std::int64_t, Shape::kMaxRank> dims{};
  for (int i = 0; i < rank; ++i) dims[static_cast<std::size_t>(i)] = parts.front().dim(i);
  dims[static_cast<std::size_t>(axis)] = axis_total;
  Shape out_shape;
  switch (rank) {
    case 1: out_shape = Shape{dims[0]}; break;
    case 2: out_shape = Shape{dims[0], dims[1]}; break;
    case 3: out_shape = Shape{dims[0], dims[1], dims[2]}; break;
    case 4: out_shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
    default: ORBIT2_FAIL("concat of rank-0 tensors");
  }
  Tensor out(out_shape);

  std::int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= out_shape[i];
  for (int i = axis + 1; i < rank; ++i) inner *= out_shape[i];

  std::int64_t dst_offset = 0;  // in axis units
  for (const Tensor& p : parts) {
    const std::int64_t part_axis = p.dim(axis);
    auto src = p.data();
    auto dst = out.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* s = src.data() + o * part_axis * inner;
      float* d = dst.data() + (o * axis_total + dst_offset) * inner;
      std::copy(s, s + part_axis * inner, d);
    }
    dst_offset += part_axis;
  }
  return out;
}

Tensor Tensor::transpose2d() const {
  ORBIT2_REQUIRE(rank() == 2, "transpose2d requires rank 2, have " << rank());
  const std::int64_t rows = dim(0), cols = dim(1);
  Tensor out(Shape{cols, rows});
  auto src = data();
  auto dst = out.data();
  // Blocked transpose for cache friendliness on large matrices.
  constexpr std::int64_t kBlock = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t r1 = std::min(rows, r0 + kBlock);
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
  return out;
}

}  // namespace orbit2
