#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/cache.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/scratch.hpp"
#include "core/simd/simd.hpp"

namespace orbit2 {

namespace {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Precomputed per-length transform state. Twiddles are generated with the
// exact sequential `w *= root` recurrence the in-loop version used, so a
// plan-driven butterfly multiplies by bit-identical factors and the
// transform output is unchanged down to the last ulp — the caches here are
// pure call-amortization, not an algorithm change.
struct Radix2Plan {
  // bitrev[i] is the reversal target the incremental swap loop visits.
  std::vector<std::uint32_t> bitrev;
  // Stages concatenated smallest-first; stage `len` starts at len/2 - 1
  // (1 + 2 + ... + len/4 entries precede it) and holds len/2 factors.
  std::vector<Complex> twiddles;
};

Radix2Plan build_radix2_plan(std::size_t n, bool inverse) {
  Radix2Plan plan;
  plan.bitrev.resize(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan.bitrev[i] = static_cast<std::uint32_t>(j);
  }
  plan.twiddles.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex root(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      plan.twiddles.push_back(w);
      w *= root;
    }
  }
  return plan;
}

std::shared_ptr<const Radix2Plan> radix2_plan(std::size_t n, bool inverse) {
  static LruCache<std::uint64_t, Radix2Plan> cache(16);
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                            static_cast<std::uint64_t>(inverse);
  if (auto hit = cache.lookup(key)) {
    ORBIT2_OBS_COUNT("fft.plan_cache_hits", 1);
    return hit;
  }
  ORBIT2_OBS_COUNT("fft.plan_cache_misses", 1);
  return cache.get_or_create(key, [&] { return build_radix2_plan(n, inverse); });
}

double* as_doubles(Complex* c) { return reinterpret_cast<double*>(c); }
const double* as_doubles(const Complex* c) {
  return reinterpret_cast<const double*>(c);
}

// Iterative radix-2 Cooley-Tukey over `lanes` independent n-point lines at
// once (n a power of two, no 1/n scaling): element j of lane l sits at
// base[j * stride + l]. The bit reversal swaps whole rows of lanes, and each
// butterfly applies its twiddle to every lane in one simd primitive call.
// std::complex<double> guarantees the array-of-two-doubles layout, which is
// the interleaved re/im format the primitive takes. Every lane sees the
// reversal order, twiddles, stage order and per-element arithmetic of a
// one-line transform, so the lane count never changes a bit.
void radix2_lines(const Radix2Plan& plan, Complex* base, std::size_t n,
                  std::int64_t lanes, std::int64_t stride) {
  const auto row = [&](std::size_t j) {
    return base + static_cast<std::int64_t>(j) * stride;
  };
  const std::uint32_t* rev = plan.bitrev.data();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap_ranges(row(i), row(i) + lanes, row(j));
  }
  const simd::Ops& sops = simd::ops();
  const Complex* tw = plan.twiddles.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* stage = tw + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        sops.fft_butterfly_lanes_f64(as_doubles(row(i + k)),
                                     as_doubles(row(i + k + half)),
                                     as_doubles(stage + k), lanes);
      }
    }
  }
}

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Per-(n, direction) Bluestein state: the chirp and the forward transform
// of the convolution kernel are pure functions of the length, so they are
// computed once and the per-call cost drops from three power-of-two FFTs
// to two (plus the pointwise products). The plan also holds the padded
// length's radix-2 plans, so running it needs no further cache lookup.
struct BluesteinPlan {
  std::size_t m = 0;               // padded convolution length
  std::vector<Complex> chirp;      // w_k = exp(sign * i * pi * k^2 / n)
  std::vector<Complex> kernel_fft; // forward FFT of conj(chirp) wrapped to m
  std::shared_ptr<const Radix2Plan> pad_forward;
  std::shared_ptr<const Radix2Plan> pad_inverse;
};

BluesteinPlan build_bluestein_plan(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  BluesteinPlan plan;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    plan.chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.m = next_power_of_two(2 * n - 1);
  plan.pad_forward = radix2_plan(plan.m, false);
  plan.pad_inverse = radix2_plan(plan.m, true);
  plan.kernel_fft.assign(plan.m, Complex(0, 0));
  plan.kernel_fft[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.kernel_fft[k] = std::conj(plan.chirp[k]);
    plan.kernel_fft[plan.m - k] = std::conj(plan.chirp[k]);
  }
  radix2_lines(*plan.pad_forward, plan.kernel_fft.data(), plan.m, 1, 1);
  return plan;
}

std::shared_ptr<const BluesteinPlan> bluestein_plan(std::size_t n,
                                                    bool inverse) {
  static LruCache<std::uint64_t, BluesteinPlan> cache(16);
  const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                            static_cast<std::uint64_t>(inverse);
  if (auto hit = cache.lookup(key)) {
    ORBIT2_OBS_COUNT("fft.plan_cache_hits", 1);
    return hit;
  }
  ORBIT2_OBS_COUNT("fft.plan_cache_misses", 1);
  return cache.get_or_create(key,
                             [&] { return build_bluestein_plan(n, inverse); });
}

// Bluestein's chirp-z transform over lanes (same layout as radix2_lines):
// it expresses an arbitrary-length DFT as a convolution, evaluated with
// padded power-of-two line transforms in grow-only per-thread scratch. Each
// element sees the one-line algorithm's operations: the chirp multiply, the
// forward and inverse padded transforms, the kernel product (one kernel
// value per row, applied to every lane) and `* inv_m * chirp`.
void bluestein_lines(const BluesteinPlan& plan, Complex* base, std::size_t n,
                     std::int64_t lanes, std::int64_t stride) {
  thread_local std::vector<Complex> pad_buffer;
  const std::size_t m = plan.m;
  Complex* x =
      core::grow_aligned(pad_buffer, static_cast<std::int64_t>(m) * lanes);
  const Complex* chirp = plan.chirp.data();
  for (std::size_t k = 0; k < n; ++k) {
    const Complex* src = base + static_cast<std::int64_t>(k) * stride;
    Complex* dst = x + static_cast<std::int64_t>(k) * lanes;
    for (std::int64_t l = 0; l < lanes; ++l) dst[l] = src[l] * chirp[k];
  }
  std::fill(x + static_cast<std::int64_t>(n) * lanes,
            x + static_cast<std::int64_t>(m) * lanes, Complex(0, 0));
  radix2_lines(*plan.pad_forward, x, m, lanes, lanes);
  // Pointwise kernel product with the pinned complex-product formula of
  // the simd contract (re = xr*yr - xi*yi, im = xi*yr + xr*yi).
  const Complex* kernel = plan.kernel_fft.data();
  for (std::size_t j = 0; j < m; ++j) {
    double* row = as_doubles(x + static_cast<std::int64_t>(j) * lanes);
    const double yr = kernel[j].real();
    const double yi = kernel[j].imag();
    for (std::int64_t l = 0; l < lanes; ++l) {
      const double xr = row[2 * l];
      const double xi = row[2 * l + 1];
      row[2 * l] = xr * yr - xi * yi;
      row[2 * l + 1] = xi * yr + xr * yi;
    }
  }
  radix2_lines(*plan.pad_inverse, x, m, lanes, lanes);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex* src = x + static_cast<std::int64_t>(k) * lanes;
    Complex* dst = base + static_cast<std::int64_t>(k) * stride;
    for (std::int64_t l = 0; l < lanes; ++l) dst[l] = src[l] * inv_m * chirp[k];
  }
}

// The resolved plan of one n-point direction: a lines call looks it up
// once and runs every lane block from it.
struct LinesPlan {
  std::size_t n = 0;
  bool inverse = false;
  std::shared_ptr<const Radix2Plan> radix2;        // n a power of two
  std::shared_ptr<const BluesteinPlan> bluestein;  // any other n > 1
};

LinesPlan resolve_lines(std::size_t n, bool inverse) {
  LinesPlan plan;
  plan.n = n;
  plan.inverse = inverse;
  if (n <= 1) return plan;
  if (is_power_of_two(n)) {
    plan.radix2 = radix2_plan(n, inverse);
  } else {
    plan.bluestein = bluestein_plan(n, inverse);
  }
  return plan;
}

// Lanes per block: a block's rows (padded ones included) fill about 32 KiB,
// so every butterfly stage finds it in L1, in whole 4-complex vectors. Lane
// blocks are also the parallel work items; lanes never interact, so the
// blocking and the thread count cannot change a bit.
std::int64_t lane_block(const LinesPlan& plan) {
  constexpr std::size_t kBlockBytes = std::size_t{32} << 10;
  const std::size_t rows = plan.bluestein ? plan.bluestein->m : plan.n;
  const std::size_t lanes = kBlockBytes / (std::max<std::size_t>(rows, 1) *
                                           sizeof(Complex));
  return std::max<std::int64_t>(8, static_cast<std::int64_t>(lanes / 4 * 4));
}

// Transforms `lanes` lines laid out as in radix2_lines, then applies the
// inverse's 1/n normalization.
void run_lines(const LinesPlan& plan, Complex* base, std::int64_t lanes,
               std::int64_t stride) {
  const std::size_t n = plan.n;
  if (n <= 1) return;
  if (plan.radix2) {
    radix2_lines(*plan.radix2, base, n, lanes, stride);
  } else {
    bluestein_lines(*plan.bluestein, base, n, lanes, stride);
  }
  if (plan.inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      Complex* row = base + static_cast<std::int64_t>(j) * stride;
      for (std::int64_t l = 0; l < lanes; ++l) row[l] *= inv_n;
    }
  }
}

// Row then column transforms over an H x W row-major coefficient grid, one
// path for every grid size. Columns are lines with lanes = W in place. Rows
// are lines too once a block of them is transposed into per-thread scratch
// (lanes = the block's rows), transformed, and copied back.
void transform_2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w,
                  bool inverse) {
  Complex* grid = coeffs.data();
  const LinesPlan rows = resolve_lines(static_cast<std::size_t>(w), inverse);
  if (rows.n > 1) {
    kernels::parallel_for(h, lane_block(rows), [&](std::int64_t y0,
                                                   std::int64_t y1) {
      thread_local std::vector<Complex> transposed;
      const std::int64_t lanes = y1 - y0;
      Complex* t = core::grow_aligned(transposed, w * lanes);
      // Column-major walks: the scratch side streams, and the grid side
      // cycles through only `lanes` cache lines.
      Complex* block = grid + y0 * w;
      for (std::int64_t x = 0; x < w; ++x) {
        for (std::int64_t l = 0; l < lanes; ++l) {
          t[x * lanes + l] = block[l * w + x];
        }
      }
      run_lines(rows, t, lanes, lanes);
      for (std::int64_t x = 0; x < w; ++x) {
        for (std::int64_t l = 0; l < lanes; ++l) {
          block[l * w + x] = t[x * lanes + l];
        }
      }
    });
  }
  fft_lines(grid, h, w, inverse);
}

}  // namespace

void fft_lines(Complex* base, std::int64_t n, std::int64_t lanes,
               bool inverse) {
  ORBIT2_REQUIRE(n >= 0 && lanes >= 0,
                 "fft_lines: " << n << " points x " << lanes << " lanes");
  const LinesPlan plan = resolve_lines(static_cast<std::size_t>(n), inverse);
  if (plan.n <= 1 || lanes == 0) return;
  kernels::parallel_for(lanes, lane_block(plan),
                        [&](std::int64_t l0, std::int64_t l1) {
                          run_lines(plan, base + l0, l1 - l0, lanes);
                        });
}

void fft(std::vector<Complex>& data, bool inverse) {
  fft_lines(data.data(), static_cast<std::int64_t>(data.size()), 1, inverse);
}

std::vector<Complex> fft_copy(const std::vector<Complex>& data, bool inverse) {
  std::vector<Complex> out = data;
  fft(out, inverse);
  return out;
}

std::vector<Complex> fft2d(const Tensor& field) {
  ORBIT2_REQUIRE(field.rank() == 2, "fft2d expects [H,W]");
  const std::int64_t h = field.dim(0), w = field.dim(1);
  ORBIT2_OBS_SPAN_ARG("fft2d", "fft", "numel", h * w);
  ORBIT2_OBS_COUNT("fft.fft2d_calls", 1);
  std::vector<Complex> coeffs(static_cast<std::size_t>(h * w));
  const float* src = field.data().data();
  for (std::int64_t i = 0; i < h * w; ++i) {
    coeffs[static_cast<std::size_t>(i)] = Complex(src[i], 0.0);
  }
  transform_2d(coeffs, h, w, /*inverse=*/false);
  return coeffs;
}

void ifft2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w) {
  ORBIT2_REQUIRE(h >= 1 && w >= 1, "ifft2d needs a non-empty grid");
  ORBIT2_REQUIRE(coeffs.size() == static_cast<std::size_t>(h * w),
                 "ifft2d: " << coeffs.size() << " coefficients for " << h << "x"
                            << w);
  ORBIT2_OBS_SPAN_ARG("ifft2d", "fft", "numel", h * w);
  ORBIT2_OBS_COUNT("fft.ifft2d_calls", 1);
  transform_2d(coeffs, h, w, /*inverse=*/true);
}

Tensor ifft2d_real(std::vector<Complex>& coeffs, std::int64_t h,
                   std::int64_t w) {
  ifft2d(coeffs, h, w);
  Tensor field(Shape{h, w});
  float* dst = field.data().data();
  for (std::int64_t i = 0; i < h * w; ++i) {
    dst[i] = static_cast<float>(coeffs[static_cast<std::size_t>(i)].real());
  }
  return field;
}

std::vector<double> radial_power_spectrum(const Tensor& field) {
  const std::int64_t h = field.dim(0), w = field.dim(1);
  const auto coeffs = fft2d(field);
  const std::int64_t max_k = std::min(h, w) / 2;
  std::vector<double> power(static_cast<std::size_t>(max_k + 1), 0.0);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_k + 1), 0);

  for (std::int64_t y = 0; y < h; ++y) {
    // Signed wavenumber: frequencies above Nyquist wrap negative.
    const std::int64_t ky = (y <= h / 2) ? y : y - h;
    for (std::int64_t x = 0; x < w; ++x) {
      const std::int64_t kx = (x <= w / 2) ? x : x - w;
      const double kr = std::sqrt(static_cast<double>(ky * ky + kx * kx));
      const std::int64_t bin = static_cast<std::int64_t>(std::llround(kr));
      if (bin > max_k) continue;
      const Complex& c = coeffs[static_cast<std::size_t>(y * w + x)];
      power[static_cast<std::size_t>(bin)] += std::norm(c);
      ++counts[static_cast<std::size_t>(bin)];
    }
  }
  for (std::size_t k = 0; k < power.size(); ++k) {
    if (counts[k] > 0) power[k] /= static_cast<double>(counts[k]);
  }
  return power;
}

}  // namespace orbit2
