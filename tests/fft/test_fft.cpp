// Unit + property tests for the FFT substrate: known transforms, inversion
// round trips across sizes (radix-2 and Bluestein), Parseval, and radial
// power spectrum behaviour on fields with known spectral content.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "fft/fft.hpp"

namespace orbit2 {
namespace {

TEST(Fft, DcSignal) {
  std::vector<Complex> x(8, Complex(1.0, 0.0));
  fft(x, false);
  EXPECT_NEAR(x[0].real(), 8.0, 1e-9);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 16;
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = Complex(std::cos(2 * M_PI * 3 * static_cast<double>(i) / static_cast<double>(n)), 0.0);
  }
  fft(x, false);
  EXPECT_NEAR(std::abs(x[3]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[n - 3]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[1]), 0.0, 1e-9);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.normal(), rng.normal());
  std::vector<Complex> y = fft_copy(x, false);
  fft(y, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-8) << "n=" << n << " i=" << i;
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-8) << "n=" << n << " i=" << i;
  }
}

// Mix of powers of two (radix-2 path) and awkward lengths (Bluestein path:
// primes, prime powers, highly composite).
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 3, 5, 7, 12,
                                           15, 17, 31, 97, 100, 121, 360));

class FftParseval : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftParseval, EnergyConserved) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 1);
  std::vector<Complex> x(n);
  double time_energy = 0.0;
  for (auto& c : x) {
    c = Complex(rng.normal(), 0.0);
    time_energy += std::norm(c);
  }
  fft(x, false);
  double freq_energy = 0.0;
  for (const auto& c : x) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-6 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftParseval,
                         ::testing::Values(8, 32, 13, 50, 128));

TEST(Fft2d, ConstantFieldIsPureDc) {
  Tensor field = Tensor::full(Shape{8, 8}, 2.0f);
  auto coeffs = fft2d(field);
  EXPECT_NEAR(coeffs[0].real(), 2.0 * 64, 1e-6);
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_NEAR(std::abs(coeffs[i]), 0.0, 1e-6);
  }
}

TEST(Fft2d, SeparableToneInCorrectBin) {
  const std::int64_t h = 16, w = 16;
  Tensor field(Shape{h, w});
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      field.at(y, x) = static_cast<float>(
          std::cos(2 * M_PI * (2.0 * y / h + 5.0 * x / w)));
    }
  }
  auto coeffs = fft2d(field);
  // Energy at (ky=2, kx=5) and its conjugate mirror.
  EXPECT_GT(std::abs(coeffs[static_cast<std::size_t>(2 * w + 5)]), 100.0);
  EXPECT_GT(std::abs(coeffs[static_cast<std::size_t>((h - 2) * w + (w - 5))]), 100.0);
  EXPECT_NEAR(std::abs(coeffs[static_cast<std::size_t>(1 * w + 1)]), 0.0, 1e-6);
}

TEST(Fft2d, NonPowerOfTwoRectangularParseval) {
  // 12x18 exercises the Bluestein path on both axes of the 2-D transform;
  // the unnormalized forward satisfies sum|F|^2 == H*W * sum|x|^2.
  const std::int64_t h = 12, w = 18;
  Rng rng(7);
  Tensor field = Tensor::randn(Shape{h, w}, rng);
  double time_energy = 0.0;
  for (std::int64_t i = 0; i < field.numel(); ++i) {
    time_energy += static_cast<double>(field[i]) * field[i];
  }
  auto coeffs = fft2d(field);
  double freq_energy = 0.0;
  for (const auto& c : coeffs) freq_energy += std::norm(c);
  const double expected = time_energy * static_cast<double>(h * w);
  EXPECT_NEAR(freq_energy, expected, 1e-6 * expected);
}

TEST(Fft2d, NonPowerOfTwoToneInCorrectBin) {
  // A separable tone on a 10x14 grid (neither axis a power of two) must
  // land in its (ky, kx) bin and the conjugate mirror, at magnitude H*W/2.
  const std::int64_t h = 10, w = 14;
  Tensor field(Shape{h, w});
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      field.at(y, x) = static_cast<float>(
          std::cos(2 * M_PI * (1.0 * y / h + 3.0 * x / w)));
    }
  }
  auto coeffs = fft2d(field);
  const double peak = static_cast<double>(h * w) / 2.0;
  EXPECT_NEAR(std::abs(coeffs[static_cast<std::size_t>(1 * w + 3)]), peak, 1e-6);
  EXPECT_NEAR(std::abs(coeffs[static_cast<std::size_t>((h - 1) * w + (w - 3))]),
              peak, 1e-6);
  EXPECT_NEAR(std::abs(coeffs[static_cast<std::size_t>(2 * w + 2)]), 0.0, 1e-6);
}

// ifft2d must invert fft2d on every code path: radix-2, Bluestein, and the
// mixed rectangular cases the synthetic data pipeline uses.
TEST(Ifft2d, RoundTripRecoversFieldAcrossGridShapes) {
  const std::pair<std::int64_t, std::int64_t> grids[] = {
      {16, 16},  // radix-2 both axes
      {12, 18},  // Bluestein both axes
      {24, 36},  // mixed composite (dataset non-power-of-two case)
      {10, 14},  // small Bluestein
  };
  for (const auto& [h, w] : grids) {
    Rng rng(static_cast<std::uint64_t>(h * 1000 + w));
    const Tensor field = Tensor::randn(Shape{h, w}, rng);
    auto coeffs = fft2d(field);
    const Tensor back = ifft2d_real(coeffs, h, w);
    ASSERT_EQ(back.shape(), field.shape());
    for (std::int64_t i = 0; i < field.numel(); ++i) {
      EXPECT_NEAR(back[i], field[i], 1e-5) << h << "x" << w << " i=" << i;
    }
  }
}

TEST(Ifft2d, RejectsCoefficientCountMismatch) {
  std::vector<Complex> coeffs(5);
  EXPECT_THROW(ifft2d(coeffs, 2, 3), Error);
  EXPECT_THROW(ifft2d(coeffs, 0, 5), Error);
}

// The parallel row/column dispatch must not change a single bit versus the
// serial path: coefficients are doubles compared exactly.
TEST(Ifft2d, TransformsBitIdenticalAcrossThreadCounts) {
  const std::int64_t h = 24, w = 36;
  Rng rng(3);
  const Tensor field = Tensor::randn(Shape{h, w}, rng);

  kernels::set_max_threads(1);
  auto serial = fft2d(field);
  auto serial_back = serial;
  ifft2d(serial_back, h, w);

  kernels::set_max_threads(4);
  auto parallel = fft2d(field);
  auto parallel_back = parallel;
  ifft2d(parallel_back, h, w);
  kernels::set_max_threads(0);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].real(), parallel[i].real()) << i;
    ASSERT_EQ(serial[i].imag(), parallel[i].imag()) << i;
    ASSERT_EQ(serial_back[i].real(), parallel_back[i].real()) << i;
    ASSERT_EQ(serial_back[i].imag(), parallel_back[i].imag()) << i;
  }
}

// Plan caches (radix-2 twiddle/bit-reversal tables, Bluestein chirp and
// kernel spectra) only amortize setup: a transform served by a warm plan
// must match a cold one bit for bit, on both the power-of-two and
// Bluestein code paths.
TEST(Fft, PlanCachedTransformsAreBitStable) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{12}, std::size_t{21}}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<Complex> signal(n);
    for (auto& c : signal) {
      c = Complex(rng.normal(), rng.normal());
    }
    auto cold = signal;
    fft(cold, /*inverse=*/false);
    for (int rep = 0; rep < 3; ++rep) {
      auto warm = signal;
      fft(warm, /*inverse=*/false);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(cold[i].real(), warm[i].real()) << "n=" << n << " i=" << i;
        ASSERT_EQ(cold[i].imag(), warm[i].imag()) << "n=" << n << " i=" << i;
      }
    }
  }
}

// A copy of the per-line 2-D transform the lines transform replaced: each
// row, then each column, gathered into its own vector and run through a
// one-line radix-2 or Bluestein FFT, with twiddles from the same `w *= root`
// recurrence and butterflies and kernel products in the simd contract's
// pinned complex-product formula. The lines transform must match it bit for
// bit.
namespace per_line {

void butterfly(Complex& a0, Complex& a1, const Complex& w) {
  const double vr = a1.real() * w.real() - a1.imag() * w.imag();
  const double vi = a1.imag() * w.real() + a1.real() * w.imag();
  const double ur = a0.real(), ui = a0.imag();
  a0 = Complex(ur + vr, ui + vi);
  a1 = Complex(ur - vr, ui - vi);
}

void radix2(std::vector<Complex>& a, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex root(std::cos(angle), std::sin(angle));
    std::vector<Complex> twiddles;
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles.push_back(w);
      w *= root;
    }
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        butterfly(a[i + k], a[i + k + len / 2], twiddles[k]);
      }
    }
  }
}

void bluestein(std::vector<Complex>& a, bool inverse) {
  const std::size_t n = a.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle =
        sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  std::size_t m = 1;
  while (m < 2 * n - 1) m <<= 1;
  std::vector<Complex> kernel(m, Complex(0, 0));
  kernel[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    kernel[k] = std::conj(chirp[k]);
    kernel[m - k] = std::conj(chirp[k]);
  }
  radix2(kernel, false);

  std::vector<Complex> x(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k];
  radix2(x, false);
  for (std::size_t k = 0; k < m; ++k) {
    const double xr = x[k].real(), xi = x[k].imag();
    const double yr = kernel[k].real(), yi = kernel[k].imag();
    x[k] = Complex(xr * yr - xi * yi, xi * yr + xr * yi);
  }
  radix2(x, true);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * inv_m * chirp[k];
}

void fft_1d(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if ((n & (n - 1)) == 0) {
    radix2(data, inverse);
  } else {
    bluestein(data, inverse);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= inv_n;
  }
}

void transform_2d(std::vector<Complex>& coeffs, std::int64_t h, std::int64_t w,
                  bool inverse) {
  std::vector<Complex> row(static_cast<std::size_t>(w));
  for (std::int64_t y = 0; y < h; ++y) {
    std::copy(coeffs.begin() + y * w, coeffs.begin() + (y + 1) * w,
              row.begin());
    fft_1d(row, inverse);
    std::copy(row.begin(), row.end(), coeffs.begin() + y * w);
  }
  std::vector<Complex> col(static_cast<std::size_t>(h));
  for (std::int64_t x = 0; x < w; ++x) {
    for (std::int64_t y = 0; y < h; ++y) {
      col[static_cast<std::size_t>(y)] =
          coeffs[static_cast<std::size_t>(y * w + x)];
    }
    fft_1d(col, inverse);
    for (std::int64_t y = 0; y < h; ++y) {
      coeffs[static_cast<std::size_t>(y * w + x)] =
          col[static_cast<std::size_t>(y)];
    }
  }
}

}  // namespace per_line

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(Fft2d, LinesMatchPerLineReferenceBitwise) {
  // 256 x 512 and 100 x 300 split both passes into several parallel tasks
  // of several lane blocks each, the last task and block short at 100 x 300.
  const std::pair<std::int64_t, std::int64_t> grids[] = {
      {64, 128}, {16, 32}, {30, 45}, {1, 64},    {64, 1},
      {2, 2},    {3, 5},   {256, 512}, {100, 300}};
  const simd::Isa saved_isa = simd::active_isa();
  for (const auto& [h, w] : grids) {
    Rng rng(static_cast<std::uint64_t>(h * 1000 + w));
    const Tensor field = Tensor::randn(Shape{h, w}, rng);
    std::vector<Complex> forward_ref(static_cast<std::size_t>(h * w));
    for (std::int64_t i = 0; i < h * w; ++i) {
      forward_ref[static_cast<std::size_t>(i)] = Complex(field[i], 0.0);
    }
    per_line::transform_2d(forward_ref, h, w, /*inverse=*/false);
    // The inverse runs on a full complex spectrum (not a real field's), so
    // both parts of every input element carry bits.
    std::vector<Complex> spectrum(static_cast<std::size_t>(h * w));
    for (auto& c : spectrum) c = Complex(rng.normal(), rng.normal());
    std::vector<Complex> inverse_ref = spectrum;
    per_line::transform_2d(inverse_ref, h, w, /*inverse=*/true);

    for (const simd::Isa isa : simd::supported_isas()) {
      simd::set_isa(isa);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        kernels::set_max_threads(threads);
        EXPECT_TRUE(same_bytes(fft2d(field), forward_ref))
            << "fft2d " << h << "x" << w << " isa=" << simd::isa_name(isa)
            << " threads=" << threads;
        std::vector<Complex> inverse = spectrum;
        ifft2d(inverse, h, w);
        EXPECT_TRUE(same_bytes(inverse, inverse_ref))
            << "ifft2d " << h << "x" << w << " isa=" << simd::isa_name(isa)
            << " threads=" << threads;
      }
    }
  }
  kernels::set_max_threads(0);
  simd::set_isa(saved_isa);
}

// Each lines pass resolves its plan once: a row pass and a column pass per
// 2-D transform, whatever the grid's line count.
TEST(Fft2d, ResolvesEachPlanOncePerTransform) {
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "built with ORBIT2_OBS=OFF";
  const std::int64_t h = 64, w = 128;
  Rng rng(11);
  const Tensor field = Tensor::randn(Shape{h, w}, rng);
  const auto lookups = [] {
    return obs::counter("fft.plan_cache_hits").value() +
           obs::counter("fft.plan_cache_misses").value();
  };
  const std::int64_t before = lookups();
  auto coeffs = fft2d(field);
  ifft2d(coeffs, h, w);
  const std::int64_t after = lookups();
  obs::set_enabled(false);
  EXPECT_EQ(after - before, 4);
}

TEST(RadialSpectrum, NonSquareFieldUsesShorterAxisForBins) {
  // Bin count follows min(H, W)/2; a constant field stays pure DC.
  Tensor field = Tensor::full(Shape{16, 40}, 1.5f);
  auto spectrum = radial_power_spectrum(field);
  EXPECT_EQ(spectrum.size(), 9u);  // k = 0..8
  EXPECT_GT(spectrum[0], 0.0);
  for (std::size_t k = 1; k < spectrum.size(); ++k) {
    EXPECT_NEAR(spectrum[k], 0.0, 1e-6);
  }
}

TEST(RadialSpectrum, BinCountAndDc) {
  Tensor field = Tensor::full(Shape{32, 32}, 3.0f);
  auto spectrum = radial_power_spectrum(field);
  EXPECT_EQ(spectrum.size(), 17u);  // k = 0..16
  EXPECT_GT(spectrum[0], 0.0);
  for (std::size_t k = 1; k < spectrum.size(); ++k) EXPECT_NEAR(spectrum[k], 0.0, 1e-6);
}

TEST(RadialSpectrum, SingleToneConcentratesAtItsWavenumber) {
  const std::int64_t n = 32;
  Tensor field(Shape{n, n});
  for (std::int64_t y = 0; y < n; ++y) {
    for (std::int64_t x = 0; x < n; ++x) {
      field.at(y, x) = static_cast<float>(std::sin(2 * M_PI * 6.0 * x / n));
    }
  }
  auto spectrum = radial_power_spectrum(field);
  // Peak strictly at k=6.
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    if (k != 6) { EXPECT_LT(spectrum[k], spectrum[6] * 1e-6) << k; }
  }
}

TEST(RadialSpectrum, WhiteNoiseIsApproximatelyFlat) {
  Rng rng(99);
  Tensor field = Tensor::randn(Shape{64, 64}, rng);
  auto spectrum = radial_power_spectrum(field);
  // Compare mid-band averages; white noise should have no strong slope.
  double low = 0.0, high = 0.0;
  for (std::size_t k = 4; k < 12; ++k) low += spectrum[k];
  for (std::size_t k = 20; k < 28; ++k) high += spectrum[k];
  EXPECT_LT(std::abs(std::log(low / high)), 1.0);
}

TEST(RadialSpectrum, SmoothingSuppressesHighFrequencies) {
  Rng rng(100);
  Tensor field = Tensor::randn(Shape{64, 64}, rng);
  // Cheap smoothing: 2x coarsen + nearest upsample.
  Tensor smooth3 = field.reshape(Shape{1, 64, 64});
  auto spec_raw = radial_power_spectrum(field);
  // Use the fft module only; smoothing via spectral test not needed here.
  // Average 2x2 blocks:
  Tensor smooth(Shape{64, 64});
  for (std::int64_t y = 0; y < 64; ++y) {
    for (std::int64_t x = 0; x < 64; ++x) {
      const std::int64_t y0 = (y / 2) * 2, x0 = (x / 2) * 2;
      smooth.at(y, x) = 0.25f * (field.at(y0, x0) + field.at(y0, x0 + 1) +
                                 field.at(y0 + 1, x0) + field.at(y0 + 1, x0 + 1));
    }
  }
  auto spec_smooth = radial_power_spectrum(smooth);
  double raw_high = 0.0, smooth_high = 0.0;
  for (std::size_t k = 24; k < 32; ++k) {
    raw_high += spec_raw[k];
    smooth_high += spec_smooth[k];
  }
  EXPECT_LT(smooth_high, 0.5 * raw_high);
}

}  // namespace
}  // namespace orbit2
