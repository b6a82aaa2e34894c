#include "hwsim/sequence_parallel.hpp"

#include <cmath>
#include <limits>

#include "core/obs.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::hwsim {

Tensor ring_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                      float scale, std::int64_t devices, CommStats& stats) {
  ORBIT2_REQUIRE(q.rank() == 2 && k.rank() == 2 && v.rank() == 2,
                 "ring_attention expects rank-2 Q,K,V");
  ORBIT2_REQUIRE(k.dim(0) == v.dim(0) && q.dim(1) == k.dim(1),
                 "ring_attention operand mismatch");
  const std::int64_t n = q.dim(0);
  const std::int64_t d = q.dim(1);
  const std::int64_t dv = v.dim(1);
  ORBIT2_REQUIRE(devices >= 1 && n % devices == 0,
                 "tokens " << n << " must divide across " << devices
                           << " devices");
  const std::int64_t rows_per_device = n / devices;
  ORBIT2_REQUIRE(k.dim(0) == n, "ring layout requires Nq == Nk");
  ORBIT2_OBS_SPAN_ARG("ring_attention", "hwsim", "devices", devices);

  // Device-local state: Q shard (static), running output / max / sum.
  Tensor output = Tensor::zeros(Shape{n, dv});
  std::vector<float> row_max(static_cast<std::size_t>(n),
                             -std::numeric_limits<float>::infinity());
  std::vector<float> row_sum(static_cast<std::size_t>(n), 0.0f);

  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  float* po = output.data().data();
  const simd::Ops& sops = simd::ops();

  // `step` rotates the KV blocks around the ring: at step s, device dev
  // holds KV block (dev + s) mod devices. Every step except the first
  // involved a real transfer of one KV block pair per device.
  for (std::int64_t step = 0; step < devices; ++step) {
    if (step > 0) {
      const std::int64_t rotation_bytes =
          devices * rows_per_device * (d + dv) *
          static_cast<std::int64_t>(sizeof(float));
      stats.allgather_bytes += rotation_bytes;
      ++stats.collective_calls;
      ORBIT2_OBS_COUNT("hwsim.allgather_bytes", rotation_bytes);
      ORBIT2_OBS_COUNT("hwsim.collective_calls", 1);
    }
    for (std::int64_t dev = 0; dev < devices; ++dev) {
      const std::int64_t kv_block = (dev + step) % devices;
      const std::int64_t q0 = dev * rows_per_device;
      const std::int64_t k0 = kv_block * rows_per_device;

      // Online-softmax combine of this KV block into the device's rows.
      for (std::int64_t i = q0; i < q0 + rows_per_device; ++i) {
        const float* qrow = pq + i * d;
        float block_max = -std::numeric_limits<float>::infinity();
        // Scores for this block, then the correction's exponent.
        std::vector<float> scores(static_cast<std::size_t>(rows_per_device) +
                                  1);
        for (std::int64_t j = 0; j < rows_per_device; ++j) {
          const float* krow = pk + (k0 + j) * d;
          double acc = 0.0;
          for (std::int64_t t = 0; t < d; ++t) {
            acc += static_cast<double>(qrow[t]) * krow[t];
          }
          scores[static_cast<std::size_t>(j)] = static_cast<float>(acc) * scale;
          block_max = std::max(block_max, scores[static_cast<std::size_t>(j)]);
        }
        const float old_max = row_max[static_cast<std::size_t>(i)];
        const float new_max = std::max(old_max, block_max);
        for (std::int64_t j = 0; j < rows_per_device; ++j) {
          scores[static_cast<std::size_t>(j)] -= new_max;
        }
        scores.back() = old_max - new_max;
        sops.exp_f32(scores.data(), scores.data(),
                     static_cast<std::int64_t>(scores.size()));
        const float correction =
            (old_max == -std::numeric_limits<float>::infinity())
                ? 0.0f
                : scores.back();
        float* orow = po + i * dv;
        for (std::int64_t t = 0; t < dv; ++t) orow[t] *= correction;
        row_sum[static_cast<std::size_t>(i)] *= correction;
        for (std::int64_t j = 0; j < rows_per_device; ++j) {
          const float p = scores[static_cast<std::size_t>(j)];
          row_sum[static_cast<std::size_t>(i)] += p;
          const float* vrow = pv + (k0 + j) * dv;
          for (std::int64_t t = 0; t < dv; ++t) orow[t] += p * vrow[t];
        }
        row_max[static_cast<std::size_t>(i)] = new_max;
      }
    }
  }

  for (std::int64_t i = 0; i < n; ++i) {
    ORBIT2_CHECK(row_sum[static_cast<std::size_t>(i)] > 0.0f,
                 "ring attention: zero normalizer at row " << i);
    const float inv = 1.0f / row_sum[static_cast<std::size_t>(i)];
    float* orow = po + i * dv;
    for (std::int64_t t = 0; t < dv; ++t) orow[t] *= inv;
  }
  return output;
}

std::int64_t ring_attention_comm_bytes(std::int64_t tokens, std::int64_t dim,
                                       std::int64_t devices) {
  ORBIT2_REQUIRE(devices >= 1 && tokens % devices == 0,
                 "tokens must divide across devices");
  // (devices-1) rotation steps; each moves one KV block pair per device.
  const std::int64_t rows_per_device = tokens / devices;
  return (devices - 1) * devices * rows_per_device * 2 * dim *
         static_cast<std::int64_t>(sizeof(float));
}

std::int64_t tiles_halo_comm_bytes(std::int64_t grid_h, std::int64_t grid_w,
                                   std::int64_t tiles, std::int64_t halo,
                                   std::int64_t channels) {
  ORBIT2_REQUIRE(tiles >= 1 && halo >= 0, "bad tile geometry");
  if (tiles == 1 || halo == 0) return 0;
  const auto side = static_cast<std::int64_t>(
      std::llround(std::sqrt(static_cast<double>(tiles))));
  const std::int64_t tile_h = grid_h / side;
  const std::int64_t tile_w = grid_w / side;
  // Each tile receives halo strips along its perimeter once per sample.
  const std::int64_t strip = 2 * (tile_h + tile_w) * halo;
  return tiles * strip * channels * static_cast<std::int64_t>(sizeof(float));
}

}  // namespace orbit2::hwsim
