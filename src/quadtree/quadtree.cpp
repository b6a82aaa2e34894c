#include "quadtree/quadtree.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace orbit2 {

namespace {

/// Summed-area table of (edge_map > 0) for O(1) density queries.
class EdgeIntegral {
 public:
  explicit EdgeIntegral(const Tensor& edge_map)
      : h_(edge_map.dim(0)), w_(edge_map.dim(1)),
        table_(static_cast<std::size_t>((h_ + 1) * (w_ + 1)), 0) {
    const float* src = edge_map.data().data();
    for (std::int64_t y = 0; y < h_; ++y) {
      for (std::int64_t x = 0; x < w_; ++x) {
        const std::int64_t on = src[y * w_ + x] > 0.0f ? 1 : 0;
        at(y + 1, x + 1) = on + at(y, x + 1) + at(y + 1, x) - at(y, x);
      }
    }
  }

  float density(const PatchRect& r) const {
    const std::int64_t count = at(r.y0 + r.h, r.x0 + r.w) - at(r.y0, r.x0 + r.w) -
                               at(r.y0 + r.h, r.x0) + at(r.y0, r.x0);
    return static_cast<float>(count) / static_cast<float>(r.area());
  }

 private:
  std::int64_t& at(std::int64_t y, std::int64_t x) {
    return table_[static_cast<std::size_t>(y * (w_ + 1) + x)];
  }
  std::int64_t at(std::int64_t y, std::int64_t x) const {
    return table_[static_cast<std::size_t>(y * (w_ + 1) + x)];
  }

  std::int64_t h_, w_;
  std::vector<std::int64_t> table_;
};

void subdivide(const EdgeIntegral& integral, const PatchRect& rect,
               const QuadTreeParams& params, std::int64_t depth,
               std::vector<PatchRect>& leaves) {
  const bool can_split = rect.h > params.min_patch || rect.w > params.min_patch;
  const bool should_split = integral.density(rect) > params.density_threshold;
  if (!can_split || !should_split || depth >= params.max_depth) {
    leaves.push_back(rect);
    return;
  }
  // Split into quadrants; odd sizes put the extra row/col in the first half
  // so degenerate zero-size children never occur.
  const std::int64_t h1 = std::max<std::int64_t>(rect.h - rect.h / 2,
                                                 std::min(rect.h, params.min_patch));
  const std::int64_t w1 = std::max<std::int64_t>(rect.w - rect.w / 2,
                                                 std::min(rect.w, params.min_patch));
  const std::int64_t h2 = rect.h - h1;
  const std::int64_t w2 = rect.w - w1;

  subdivide(integral, {rect.y0, rect.x0, h1, w1}, params, depth + 1, leaves);
  if (w2 > 0) {
    subdivide(integral, {rect.y0, rect.x0 + w1, h1, w2}, params, depth + 1,
              leaves);
  }
  if (h2 > 0) {
    subdivide(integral, {rect.y0 + h1, rect.x0, h2, w1}, params, depth + 1,
              leaves);
  }
  if (h2 > 0 && w2 > 0) {
    subdivide(integral, {rect.y0 + h1, rect.x0 + w1, h2, w2}, params,
              depth + 1, leaves);
  }
}

}  // namespace

std::vector<PatchRect> adaptive_partition(const Tensor& edge_map,
                                          const QuadTreeParams& params) {
  ORBIT2_REQUIRE(edge_map.rank() == 2, "adaptive_partition expects [H,W]");
  ORBIT2_REQUIRE(params.min_patch >= 1, "min_patch must be >= 1");
  const std::int64_t h = edge_map.dim(0), w = edge_map.dim(1);
  ORBIT2_REQUIRE(h >= 1 && w >= 1, "empty grid");
  EdgeIntegral integral(edge_map);
  std::vector<PatchRect> leaves;
  subdivide(integral, {0, 0, h, w}, params, 0, leaves);
  return leaves;
}

std::int64_t max_leaves_for_ratio(std::int64_t cells, float target_ratio) {
  ORBIT2_REQUIRE(target_ratio >= 1.0f, "compression ratio must be >= 1");
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(static_cast<float>(cells) / target_ratio)));
}

std::vector<PatchRect> partition_with_target_ratio(const Tensor& edge_map,
                                                   float target_ratio,
                                                   std::int64_t min_patch) {
  const std::int64_t max_leaves =
      max_leaves_for_ratio(edge_map.dim(0) * edge_map.dim(1), target_ratio);

  QuadTreeParams params;
  params.min_patch = min_patch;

  // Density thresholds are fractions in [0, 1]; bisect for the smallest
  // threshold whose partition is small enough (smaller threshold => more
  // splitting => more leaves, monotonically).
  float lo = 0.0f, hi = 1.0f;
  std::vector<PatchRect> best;
  params.density_threshold = hi;
  best = adaptive_partition(edge_map, params);
  for (int iter = 0; iter < 24; ++iter) {
    params.density_threshold = 0.5f * (lo + hi);
    auto leaves = adaptive_partition(edge_map, params);
    if (static_cast<std::int64_t>(leaves.size()) <= max_leaves) {
      best = std::move(leaves);
      hi = params.density_threshold;
    } else {
      lo = params.density_threshold;
    }
  }
  return best;
}

float compression_ratio(std::int64_t grid_h, std::int64_t grid_w,
                        const std::vector<PatchRect>& leaves) {
  ORBIT2_REQUIRE(!leaves.empty(), "empty partition");
  return static_cast<float>(grid_h * grid_w) /
         static_cast<float>(leaves.size());
}

void check_partition(std::int64_t grid_h, std::int64_t grid_w,
                     const std::vector<PatchRect>& leaves) {
  std::vector<std::int8_t> covered(
      static_cast<std::size_t>(grid_h * grid_w), 0);
  for (const PatchRect& r : leaves) {
    ORBIT2_CHECK(r.h > 0 && r.w > 0, "degenerate leaf");
    ORBIT2_CHECK(r.y0 >= 0 && r.x0 >= 0 && r.y0 + r.h <= grid_h &&
                     r.x0 + r.w <= grid_w,
                 "leaf out of bounds");
    for (std::int64_t y = r.y0; y < r.y0 + r.h; ++y) {
      for (std::int64_t x = r.x0; x < r.x0 + r.w; ++x) {
        std::int8_t& cell = covered[static_cast<std::size_t>(y * grid_w + x)];
        ORBIT2_CHECK(cell == 0, "overlapping leaves at (" << y << "," << x << ")");
        cell = 1;
      }
    }
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    ORBIT2_CHECK(covered[i] == 1, "uncovered cell " << i);
  }
}

namespace {
void check_token_grid(const Tensor& tokens, std::int64_t grid_h,
                      std::int64_t grid_w) {
  ORBIT2_REQUIRE(tokens.rank() == 2, "tokens must be [P, D]");
  ORBIT2_REQUIRE(tokens.dim(0) == grid_h * grid_w,
                 "token count " << tokens.dim(0) << " vs grid "
                                << grid_h * grid_w);
}

std::int64_t partition_leaf_count(const Tensor& value) {
  return static_cast<std::int64_t>(value.data()[0]);
}

PatchRect partition_leaf(const Tensor& value, std::int64_t l) {
  const float* rect = value.data().data() + 1 + 4 * l;
  return {static_cast<std::int64_t>(rect[0]),
          static_cast<std::int64_t>(rect[1]),
          static_cast<std::int64_t>(rect[2]),
          static_cast<std::int64_t>(rect[3])};
}

/// `leaves` as an exactly sized partition value.
Tensor partition_value(const std::vector<PatchRect>& leaves) {
  Tensor value(
      Shape{partition_value_size(static_cast<std::int64_t>(leaves.size()))});
  encode_partition(leaves, value);
  return value;
}

}  // namespace

std::int64_t partition_value_size(std::int64_t max_leaves) {
  return 1 + 4 * max_leaves;
}

void encode_partition(const std::vector<PatchRect>& leaves, Tensor& value) {
  const auto count = static_cast<std::int64_t>(leaves.size());
  ORBIT2_REQUIRE(value.rank() == 1 &&
                     value.numel() >= partition_value_size(count),
                 "partition value " << value.shape().to_string()
                                    << " has no room for " << count
                                    << " leaves");
  float* dst = value.data().data();
  dst[0] = static_cast<float>(count);
  for (std::int64_t l = 0; l < count; ++l) {
    const PatchRect& r = leaves[static_cast<std::size_t>(l)];
    float* rect = dst + 1 + 4 * l;
    rect[0] = static_cast<float>(r.y0);
    rect[1] = static_cast<float>(r.x0);
    rect[2] = static_cast<float>(r.h);
    rect[3] = static_cast<float>(r.w);
  }
}

void pool_tokens_into(const Tensor& tokens, std::int64_t grid_h,
                      std::int64_t grid_w, const Tensor& partition,
                      Tensor& out) {
  check_token_grid(tokens, grid_h, grid_w);
  const std::int64_t d = tokens.dim(1);
  const std::int64_t count = partition_leaf_count(partition);
  ORBIT2_REQUIRE(out.rank() == 2 && out.dim(0) >= count && out.dim(1) == d,
                 "pooled tokens " << out.shape().to_string() << " for "
                                  << count << " leaves of width " << d);
  const float* src = tokens.data().data();
  float* dst = out.data().data();
  std::fill(dst, dst + out.numel(), 0.0f);
  for (std::int64_t l = 0; l < count; ++l) {
    const PatchRect r = partition_leaf(partition, l);
    float* leaf = dst + l * d;
    for (std::int64_t y = r.y0; y < r.y0 + r.h; ++y) {
      for (std::int64_t x = r.x0; x < r.x0 + r.w; ++x) {
        const float* cell = src + (y * grid_w + x) * d;
        for (std::int64_t f = 0; f < d; ++f) leaf[f] += cell[f];
      }
    }
    const float inv = 1.0f / static_cast<float>(r.area());
    for (std::int64_t f = 0; f < d; ++f) leaf[f] *= inv;
  }
}

void scatter_tokens_into(const Tensor& leaf_tokens, std::int64_t grid_h,
                         std::int64_t grid_w, const Tensor& partition,
                         Tensor& out) {
  check_token_grid(out, grid_h, grid_w);
  const std::int64_t d = out.dim(1);
  const std::int64_t count = partition_leaf_count(partition);
  ORBIT2_REQUIRE(leaf_tokens.rank() == 2 && leaf_tokens.dim(0) >= count &&
                     leaf_tokens.dim(1) == d,
                 "leaf tokens " << leaf_tokens.shape().to_string() << " for "
                                << count << " leaves of width " << d);
  const float* src = leaf_tokens.data().data();
  float* dst = out.data().data();
  for (std::int64_t l = 0; l < count; ++l) {
    const PatchRect r = partition_leaf(partition, l);
    for (std::int64_t y = r.y0; y < r.y0 + r.h; ++y) {
      for (std::int64_t x = r.x0; x < r.x0 + r.w; ++x) {
        std::copy(src + l * d, src + (l + 1) * d, dst + (y * grid_w + x) * d);
      }
    }
  }
}

Tensor pool_tokens(const Tensor& tokens, std::int64_t grid_h,
                   std::int64_t grid_w, const std::vector<PatchRect>& leaves) {
  check_token_grid(tokens, grid_h, grid_w);
  Tensor out(Shape{static_cast<std::int64_t>(leaves.size()), tokens.dim(1)});
  pool_tokens_into(tokens, grid_h, grid_w, partition_value(leaves), out);
  return out;
}

Tensor scatter_tokens(const Tensor& leaf_tokens, std::int64_t grid_h,
                      std::int64_t grid_w,
                      const std::vector<PatchRect>& leaves) {
  ORBIT2_REQUIRE(leaf_tokens.rank() == 2, "leaf tokens must be [L, D]");
  ORBIT2_REQUIRE(leaf_tokens.dim(0) ==
                     static_cast<std::int64_t>(leaves.size()),
                 "leaf token count mismatch");
  Tensor out(Shape{grid_h * grid_w, leaf_tokens.dim(1)});
  scatter_tokens_into(leaf_tokens, grid_h, grid_w, partition_value(leaves),
                      out);
  return out;
}

Tensor pool_tokens_adjoint(const Tensor& grad_leaf_tokens, std::int64_t grid_h,
                           std::int64_t grid_w,
                           const std::vector<PatchRect>& leaves) {
  ORBIT2_REQUIRE(grad_leaf_tokens.dim(0) ==
                     static_cast<std::int64_t>(leaves.size()),
                 "adjoint leaf count mismatch");
  const std::int64_t d = grad_leaf_tokens.dim(1);
  Tensor out = Tensor::zeros(Shape{grid_h * grid_w, d});
  const float* src = grad_leaf_tokens.data().data();
  float* dst = out.data().data();
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const PatchRect& r = leaves[l];
    const float* leaf = src + static_cast<std::int64_t>(l) * d;
    const float inv = 1.0f / static_cast<float>(r.area());
    for (std::int64_t y = r.y0; y < r.y0 + r.h; ++y) {
      for (std::int64_t x = r.x0; x < r.x0 + r.w; ++x) {
        float* cell = dst + (y * grid_w + x) * d;
        for (std::int64_t f = 0; f < d; ++f) cell[f] += leaf[f] * inv;
      }
    }
  }
  return out;
}

Tensor scatter_tokens_adjoint(const Tensor& grad_tokens, std::int64_t grid_h,
                              std::int64_t grid_w,
                              const std::vector<PatchRect>& leaves) {
  check_token_grid(grad_tokens, grid_h, grid_w);
  const std::int64_t d = grad_tokens.dim(1);
  Tensor out =
      Tensor::zeros(Shape{static_cast<std::int64_t>(leaves.size()), d});
  const float* src = grad_tokens.data().data();
  float* dst = out.data().data();
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const PatchRect& r = leaves[l];
    float* leaf = dst + static_cast<std::int64_t>(l) * d;
    for (std::int64_t y = r.y0; y < r.y0 + r.h; ++y) {
      for (std::int64_t x = r.x0; x < r.x0 + r.w; ++x) {
        const float* cell = src + (y * grid_w + x) * d;
        for (std::int64_t f = 0; f < d; ++f) leaf[f] += cell[f];
      }
    }
  }
  return out;
}

}  // namespace orbit2
