#include "attention/window_attention.hpp"

#include "core/error.hpp"

namespace orbit2 {

void check_window_spec(const WindowAttentionSpec& spec) {
  const std::int64_t gh = spec.grid_h, gw = spec.grid_w, w = spec.window;
  ORBIT2_REQUIRE(gh >= 1 && gw >= 1 && w >= 1,
                 "bad window geometry: grid " << gh << "x" << gw
                                              << ", window " << w);
  ORBIT2_REQUIRE(gh % w == 0 && gw % w == 0,
                 "grid " << gh << "x" << gw << " not divisible by window "
                         << w);
  ORBIT2_REQUIRE(spec.shift >= 0 && spec.shift < w,
                 "shift " << spec.shift << " outside [0, window " << w
                          << ")");
}

std::vector<std::int64_t> cyclic_shift_permutation(std::int64_t grid_h,
                                                   std::int64_t grid_w,
                                                   std::int64_t dy,
                                                   std::int64_t dx) {
  const std::int64_t sy = ((dy % grid_h) + grid_h) % grid_h;
  const std::int64_t sx = ((dx % grid_w) + grid_w) % grid_w;
  std::vector<std::int64_t> perm(
      static_cast<std::size_t>(grid_h * grid_w));
  // out[(y+sy, x+sx)] = in[(y, x)]  <=>  out[i] = in[perm[i]].
  for (std::int64_t y = 0; y < grid_h; ++y) {
    for (std::int64_t x = 0; x < grid_w; ++x) {
      const std::int64_t src_y = ((y - sy) % grid_h + grid_h) % grid_h;
      const std::int64_t src_x = ((x - sx) % grid_w + grid_w) % grid_w;
      perm[static_cast<std::size_t>(y * grid_w + x)] = src_y * grid_w + src_x;
    }
  }
  return perm;
}

std::vector<std::int64_t> window_partition_permutation(
    const WindowAttentionSpec& spec) {
  check_window_spec(spec);
  const std::int64_t gh = spec.grid_h, gw = spec.grid_w, w = spec.window;
  std::vector<std::int64_t> perm;
  perm.reserve(static_cast<std::size_t>(gh * gw));
  for (std::int64_t wy = 0; wy < gh / w; ++wy) {
    for (std::int64_t wx = 0; wx < gw / w; ++wx) {
      for (std::int64_t iy = 0; iy < w; ++iy) {
        for (std::int64_t ix = 0; ix < w; ++ix) {
          perm.push_back((wy * w + iy) * gw + (wx * w + ix));
        }
      }
    }
  }
  return perm;
}

std::vector<std::int64_t> invert_permutation(
    const std::vector<std::int64_t>& perm) {
  std::vector<std::int64_t> inverse(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<std::size_t>(perm[i])] = static_cast<std::int64_t>(i);
  }
  return inverse;
}

}  // namespace orbit2
