#pragma once
// Swin-style (shifted-)window attention — the architectural prior art the
// paper contrasts with TILES (§II "Architecture solutions": Swin caps at
// 147K tokens because its hierarchy must deepen with resolution).
//
// Tokens live on a (grid_h x grid_w) spatial grid, row-major. Attention is
// computed independently inside non-overlapping window x window blocks; a
// cyclic shift of half the window (Swin's trick) lets alternating layers
// mix information across window boundaries. Unlike TILES — which assigns
// windows to devices and *keeps* them independent per sample — shifted
// windows re-couple everything, which is why Swin needs its hierarchy and
// cannot simply parallelize windows across GPUs for a single sample.

#include <vector>

#include "tensor/tensor.hpp"

namespace orbit2 {

struct WindowAttentionSpec {
  std::int64_t grid_h = 0;
  std::int64_t grid_w = 0;
  std::int64_t window = 8;  // window side length, must divide grid dims
  std::int64_t shift = 0;   // cyclic shift (0 or window/2 in Swin)
};

/// Throws unless the grid and window are positive, the window divides both
/// grid dims, and the shift lies in [0, window).
void check_window_spec(const WindowAttentionSpec& spec);

/// Row permutation realizing the cyclic shift: out[i] = in[perm[i]].
std::vector<std::int64_t> cyclic_shift_permutation(std::int64_t grid_h,
                                                   std::int64_t grid_w,
                                                   std::int64_t dy,
                                                   std::int64_t dx);

/// Row permutation grouping tokens window-by-window (row-major windows,
/// row-major cells within a window): after applying it, window k occupies
/// rows [k*window^2, (k+1)*window^2). Checks the spec (check_window_spec).
std::vector<std::int64_t> window_partition_permutation(
    const WindowAttentionSpec& spec);

/// The inverse of window_partition_permutation.
std::vector<std::int64_t> invert_permutation(
    const std::vector<std::int64_t>& perm);

}  // namespace orbit2
