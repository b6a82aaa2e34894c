#include "data/generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/cache.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"
#include "fft/fft.hpp"
#include "image/filters.hpp"

namespace orbit2::data {

namespace {

// GRF spectral filters pow(k+1, -beta/2) depend only on (h, w, beta); every
// sample of a dataset reuses the same handful of (grid, slope) pairs, so the
// grids are computed once and shared. beta is keyed by bit pattern: filter
// values are a pure function of the exact float.
struct FilterKey {
  std::int64_t h = 0;
  std::int64_t w = 0;
  std::uint32_t beta_bits = 0;
  bool operator==(const FilterKey&) const = default;
};

struct FilterKeyHash {
  std::size_t operator()(const FilterKey& key) const {
    std::uint64_t state = 0x9e3779b97f4a7c15ull ^
                          static_cast<std::uint64_t>(key.h);
    state = splitmix64(state) ^ static_cast<std::uint64_t>(key.w);
    state = splitmix64(state) ^ key.beta_bits;
    return static_cast<std::size_t>(splitmix64(state));
  }
};

std::vector<double> compute_spectral_filter(std::int64_t h, std::int64_t w,
                                            float beta) {
  std::vector<double> filter(static_cast<std::size_t>(h * w));
  for (std::int64_t y = 0; y < h; ++y) {
    const double ky = static_cast<double>((y <= h / 2) ? y : y - h);
    for (std::int64_t x = 0; x < w; ++x) {
      const double kx = static_cast<double>((x <= w / 2) ? x : x - w);
      const double k = std::sqrt(ky * ky + kx * kx);
      filter[static_cast<std::size_t>(y * w + x)] =
          std::pow(k + 1.0, -static_cast<double>(beta) / 2.0);
    }
  }
  return filter;
}

std::shared_ptr<const std::vector<double>> spectral_filter(std::int64_t h,
                                                           std::int64_t w,
                                                           float beta) {
  // Distinct (grid, slope) pairs in play at once: one per variable spectral
  // slope per grid size; 32 covers every catalogue with headroom.
  static LruCache<FilterKey, std::vector<double>, FilterKeyHash> cache(32);
  const FilterKey key{h, w, std::bit_cast<std::uint32_t>(beta)};
  if (auto hit = cache.lookup(key)) {
    ORBIT2_OBS_COUNT("data.grf_filter_cache_hits", 1);
    return hit;
  }
  ORBIT2_OBS_COUNT("data.grf_filter_cache_misses", 1);
  return cache.get_or_create(key,
                             [&] { return compute_spectral_filter(h, w, beta); });
}

}  // namespace

Tensor gaussian_random_field(std::int64_t h, std::int64_t w, float beta,
                             Rng& rng) {
  ORBIT2_REQUIRE(h >= 4 && w >= 4, "GRF grid too small: " << h << "x" << w);
  ORBIT2_OBS_SPAN_ARG("data/grf", "data", "numel", h * w);
  ORBIT2_OBS_COUNT("data.grf_calls", 1);
  // White noise -> Fourier domain -> k^-beta/2 filter -> back. The filter on
  // |F|^2 is then k^-beta as requested.
  Tensor noise = Tensor::randn(Shape{h, w}, rng);
  auto coeffs = fft2d(noise);

  const auto filter = spectral_filter(h, w, beta);
  const double* flt = filter->data();
  kernels::parallel_for(h * w, kernels::grain_for(4), [&](std::int64_t i0,
                                                          std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      coeffs[static_cast<std::size_t>(i)] *= flt[i];
    }
  });

  // Inverse transform; take the real part — imaginary residue is numerical
  // noise because the filter is real and conjugate-symmetric.
  Tensor field = ifft2d_real(coeffs, h, w);

  // Normalize to zero mean, unit variance. The variance accumulation stays
  // a single serial double sum: splitting it into chunked partials would
  // change the rounding (and thus sample bits) versus the established
  // reference values.
  const float mu = field.mean();
  float* p = field.data().data();
  double var = 0.0;
  for (std::int64_t i = 0; i < h * w; ++i) {
    p[i] -= mu;
    var += static_cast<double>(p[i]) * p[i];
  }
  var /= static_cast<double>(h * w);
  const float inv_std = var > 0 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
  for (std::int64_t i = 0; i < h * w; ++i) p[i] *= inv_std;
  return field;
}

Tensor synthetic_topography(std::int64_t h, std::int64_t w,
                            std::uint64_t seed) {
  Rng rng(seed ^ 0x70706f67ull);
  // Base: very smooth GRF (continental shapes) + a ridge system + rough
  // detail, mimicking mountain chains over plains.
  Tensor base = gaussian_random_field(h, w, 4.0f, rng);
  Tensor detail = gaussian_random_field(h, w, 2.5f, rng);

  Tensor topo(Shape{h, w});
  const double ridge_angle = rng.uniform(0.0, M_PI);
  const double ridge_freq = rng.uniform(1.5, 3.5);
  const double cos_a = std::cos(ridge_angle), sin_a = std::sin(ridge_angle);
  // Per-row ridge evaluation: each (y, x) is a pure function of the shared
  // ridge parameters, so the parallel split is bit-identical to serial.
  kernels::parallel_for(
      h, kernels::grain_for(w * 16), [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t y = y0; y < y1; ++y) {
          for (std::int64_t x = 0; x < w; ++x) {
            const double u = (cos_a * static_cast<double>(x) / static_cast<double>(w) +
                              sin_a * static_cast<double>(y) / static_cast<double>(h));
            const double ridge =
                std::pow(std::max(0.0, std::sin(2 * M_PI * ridge_freq * u)), 2.0);
            topo.at(y, x) = base.at(y, x) + 1.2f * static_cast<float>(ridge) +
                            0.3f * detail.at(y, x);
          }
        }
      });
  // Normalize.
  const float mu = topo.mean();
  double var = 0.0;
  for (float& v : topo.data()) {
    v -= mu;
    var += static_cast<double>(v) * v;
  }
  var /= static_cast<double>(topo.numel());
  const float inv = var > 0 ? static_cast<float>(1.0 / std::sqrt(var)) : 1.0f;
  for (float& v : topo.data()) v *= inv;
  return topo;
}

Tensor generate_variable_field(const VariableSpec& spec, std::int64_t h,
                               std::int64_t w, const Tensor& topography,
                               Rng& weather_rng) {
  ORBIT2_REQUIRE(topography.shape() == Shape({h, w}),
                 "topography shape mismatch");
  const Tensor anomaly =
      gaussian_random_field(h, w, spec.spectral_slope, weather_rng);
  return physical_from_anomaly(spec, anomaly, topography);
}

Tensor physical_from_anomaly(const VariableSpec& spec, const Tensor& anomaly,
                             const Tensor& topography) {
  ORBIT2_REQUIRE(anomaly.shape() == topography.shape(),
                 "anomaly/topography shape mismatch");
  const std::int64_t h = anomaly.dim(0), w = anomaly.dim(1);
  Tensor field(Shape{h, w});
  const float* topo = topography.data().data();
  const float* a = anomaly.data().data();
  float* dst = field.data().data();

  const float coupling = spec.topography_coupling;
  const float anomaly_gain =
      std::sqrt(std::max(0.0f, 1.0f - coupling * coupling));
  switch (spec.distribution) {
    case Distribution::kGaussian: {
      kernels::parallel_for(
          h * w, kernels::grain_for(4), [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
              // Physical field = mean + coupled terrain + weather anomaly.
              const float standardized =
                  coupling * topo[i] + anomaly_gain * a[i];
              dst[i] = spec.mean + spec.stddev * standardized;
            }
          });
      break;
    }
    case Distribution::kLogNormal: {
      // exp of the shaped field, thresholded for intermittency (dry areas),
      // scaled to the requested climatological mean.
      const simd::Ops& sops = simd::ops();
      const auto wet_at = [&](std::int64_t i) {
        const float standardized = coupling * topo[i] + anomaly_gain * a[i];
        return standardized - 0.3f;  // ~38% of area is "wet"
      };
      kernels::parallel_for(
          h * w, kernels::grain_for(8), [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) dst[i] = wet_at(i);
            sops.exp_f32(dst + i0, dst + i0, i1 - i0);
            for (std::int64_t i = i0; i < i1; ++i) {
              dst[i] = wet_at(i) > 0.0f ? spec.mean * (dst[i] - 1.0f) : 0.0f;
            }
          });
      break;
    }
  }
  return field;
}

Tensor perturb_as_observation(const Tensor& field, Rng& rng, float gain_noise,
                              float additive_noise) {
  ORBIT2_REQUIRE(field.rank() == 2, "perturb_as_observation expects [H,W]");
  const float scale = field.abs_max();
  Tensor noisy = field.clone();
  for (float& v : noisy.data()) {
    const float gain = 1.0f + gain_noise * static_cast<float>(rng.normal());
    v = v * gain + additive_noise * scale * static_cast<float>(rng.normal());
  }
  // Sensor footprint: slight spatial smoothing.
  return gaussian_blur(noisy, 0.7f);
}

Tensor latitude_weights(std::int64_t h) {
  ORBIT2_REQUIRE(h >= 1, "latitude_weights needs h >= 1");
  Tensor weights(Shape{h});
  double total = 0.0;
  for (std::int64_t y = 0; y < h; ++y) {
    // Row centers from +~90 to -~90 degrees.
    const double lat =
        M_PI * ((static_cast<double>(y) + 0.5) / static_cast<double>(h) - 0.5);
    const double weight = std::cos(lat);
    weights[y] = static_cast<float>(weight);
    total += weight;
  }
  // Normalize to mean 1 so losses stay comparable across grids.
  const float inv_mean = static_cast<float>(static_cast<double>(h) / total);
  for (float& w : weights.data()) w *= inv_mean;
  return weights;
}

}  // namespace orbit2::data
