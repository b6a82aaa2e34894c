// SIMD microkernel tier: bit-exactness matrix. Every vector backend the host
// supports must produce byte-identical results to the scalar reference for
// every primitive, across sizes that straddle vector widths (1, lane-1, lane,
// lane+1, non-powers-of-two) and across pointer offsets that break natural
// alignment. Guard elements past the logical end pin that no backend writes
// out of bounds. Two end-to-end goldens (data-pipeline CRC and Reslim
// compiled-predict bytes) close the loop from primitives to the full model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "core/crc32.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"
#include "data/dataset.hpp"
#include "model/reslim.hpp"
#include "tensor/tensor.hpp"

namespace orbit2 {
namespace {

constexpr std::int64_t kSizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33,
                                   100, 1023};
constexpr std::int64_t kOffsets[] = {0, 1, 3};
constexpr std::size_t kGuard = 16;  // sentinel elems past the logical end

/// Restores the process-wide active ISA on scope exit so a failing test
/// cannot leak a forced backend into later tests.
class IsaRestore {
 public:
  IsaRestore() : saved_(simd::active_isa()) {}
  ~IsaRestore() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

/// Finite values spanning many binades plus signed zeros and subnormals —
/// the cases where a reassociated or FMA-contracted backend would diverge.
std::vector<float> interesting_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int exp10 = static_cast<int>(rng.uniform(-12.0, 12.0));
    v[i] = static_cast<float>(rng.normal() * std::pow(10.0, exp10));
  }
  if (n > 0) v[0] = 0.0f;
  if (n > 1) v[1] = -0.0f;
  if (n > 2) v[2] = 1.0e-41f;   // subnormal
  if (n > 3) v[3] = -7.0e-42f;  // subnormal
  return v;
}

std::vector<double> interesting_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int exp10 = static_cast<int>(rng.uniform(-30.0, 30.0));
    v[i] = rng.normal() * std::pow(10.0, exp10);
  }
  if (n > 0) v[0] = 0.0;
  if (n > 1) v[1] = -0.0;
  return v;
}

/// Runs `run` under scalar then under every supported backend, comparing the
/// whole destination buffer (including guards) byte for byte. `dst` and `src`
/// hold `mult * n` elements at offset `off`.
template <typename T>
void expect_matrix_bitwise(
    const char* what, std::int64_t mult,
    const std::function<std::vector<T>(std::size_t, std::uint64_t)>& make,
    const std::function<void(const simd::Ops&, T*, const T*, std::int64_t)>&
        run) {
  const IsaRestore restore;
  const std::vector<simd::Isa> isas = simd::supported_isas();
  std::uint64_t seed = 1000;
  for (const std::int64_t n : kSizes) {
    for (const std::int64_t off : kOffsets) {
      const std::size_t used = static_cast<std::size_t>(off + mult * n);
      const std::size_t total = used + kGuard;
      const std::vector<T> src = make(total, seed++);
      std::vector<T> dst_init = make(total, seed++);
      for (std::size_t i = used; i < total; ++i) {
        dst_init[i] = static_cast<T>(12345);  // guard: must survive untouched
      }

      simd::set_isa(simd::Isa::kScalar);
      std::vector<T> expected = dst_init;
      run(simd::ops(), expected.data() + off, src.data() + off, n);

      for (const simd::Isa isa : isas) {
        simd::set_isa(isa);
        std::vector<T> got = dst_init;
        run(simd::ops(), got.data() + off, src.data() + off, n);
        EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                                 total * sizeof(T)))
            << what << " diverged from scalar: isa=" << simd::isa_name(isa)
            << " n=" << n << " off=" << off;
      }
    }
  }
}

void expect_f32_matrix_bitwise(
    const char* what,
    const std::function<void(const simd::Ops&, float*, const float*,
                             std::int64_t)>& run) {
  expect_matrix_bitwise<float>(what, 1, interesting_floats, run);
}

// ---- elementwise f32 primitives -------------------------------------------

TEST(SimdMatrix, AxpyF32) {
  expect_f32_matrix_bitwise(
      "axpy_f32", [](const simd::Ops& o, float* d, const float* s,
                     std::int64_t n) { o.axpy_f32(d, s, 1.7f, n); });
}

TEST(SimdMatrix, ScaleF32) {
  expect_f32_matrix_bitwise(
      "scale_f32", [](const simd::Ops& o, float* d, const float*,
                      std::int64_t n) { o.scale_f32(d, -0.37f, n); });
}

TEST(SimdMatrix, AddF32) {
  expect_f32_matrix_bitwise(
      "add_f32", [](const simd::Ops& o, float* d, const float* s,
                    std::int64_t n) { o.add_f32(d, s, n); });
}

TEST(SimdMatrix, SubF32) {
  expect_f32_matrix_bitwise(
      "sub_f32", [](const simd::Ops& o, float* d, const float* s,
                    std::int64_t n) { o.sub_f32(d, s, n); });
}

TEST(SimdMatrix, RsubF32) {
  expect_f32_matrix_bitwise(
      "rsub_f32", [](const simd::Ops& o, float* d, const float* s,
                     std::int64_t n) { o.rsub_f32(d, s, n); });
}

TEST(SimdMatrix, MulF32) {
  expect_f32_matrix_bitwise(
      "mul_f32", [](const simd::Ops& o, float* d, const float* s,
                    std::int64_t n) { o.mul_f32(d, s, n); });
}

TEST(SimdMatrix, MaxF32) {
  // std::max's order on every backend: NaNs and signed zeros on either side,
  // next to finite values over many binades.
  const auto make = [](std::size_t n, std::uint64_t seed) {
    std::vector<float> v = interesting_floats(n, seed);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    Rng rng(seed + 17);
    for (std::size_t i = 0; i < n; i += 2) {
      v[i] = specials[rng.uniform_index(std::size(specials))];
    }
    return v;
  };
  expect_matrix_bitwise<float>(
      "max_f32", 1, make,
      [](const simd::Ops& o, float* d, const float* s, std::int64_t n) {
        o.max_f32(d, s, n);
      });
}

// ---- bf16 convert-and-round: full bit-pattern coverage ---------------------

TEST(SimdMatrix, Bf16RoundF32AllBitClasses) {
  // bf16 rounding is pure bit manipulation, so it must be exact on every
  // input class: both NaN encodings (payload preserved or quieted the same
  // way), infinities, signed zeros, subnormals, and round-to-even ties.
  const std::uint32_t special[] = {
      0x00000000u, 0x80000000u,  // +/- zero
      0x00000001u, 0x807fffffu,  // subnormals
      0x3f800000u, 0x3f808000u,  // 1.0 and an even tie
      0x3f818000u, 0x3f81ffffu,  // odd tie and just-above-tie
      0x7f7fffffu, 0xff7fffffu,  // +/- max finite
      0x7f800000u, 0xff800000u,  // +/- inf
      0x7f800001u, 0xffb12345u,  // signalling NaNs
      0x7fc00000u, 0xffffffffu,  // quiet NaNs
  };
  const std::size_t n_special = sizeof(special) / sizeof(special[0]);
  expect_matrix_bitwise<float>(
      "bf16_round_f32", 1,
      [&](std::size_t total, std::uint64_t seed) {
        Rng rng(seed);
        std::vector<float> v(total);
        for (std::size_t i = 0; i < total; ++i) {
          const std::uint32_t bits =
              i < n_special ? special[i]
                            : static_cast<std::uint32_t>(rng.next_u64());
          v[i] = std::bit_cast<float>(bits);
        }
        return v;
      },
      [](const simd::Ops& o, float* d, const float*, std::int64_t n) {
        o.bf16_round_f32(d, n);
      });
}

// ---- register-tiled GEMM tile (f64 accumulators, f32 operands) -----------

/// Byte equality, except that a NaN matches any NaN: which operand's payload
/// a two-NaN operation keeps is not part of the contract.
template <typename T>
bool same_bits_any_nan(const std::vector<T>& got, const std::vector<T>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0 &&
        !(std::isnan(got[i]) && std::isnan(want[i]))) {
      return false;
    }
  }
  return true;
}

TEST(SimdMatrix, GemmTileF64) {
  // acc rows sit ldacc > n apart, a rows lda > k apart and b rows ldb > n
  // apart, so every gap (and a guard block past the last acc row) must come
  // back byte-identical: a backend that reads or writes past its n or k
  // shows up here. Shapes straddle the 4 x 16 / 4 x 8 register tiles. The
  // finite pass spans many binades, so a reordered double sum changes bits
  // and is compared with memcmp; the special pass adds NaN, +/-Inf, -0.0
  // and subnormals to both operands.
  const IsaRestore restore;
  const std::vector<simd::Isa> isas = simd::supported_isas();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::uint64_t seed = 2000;
  for (const bool special : {false, true}) {
    for (const std::int64_t rows : {0, 1, 3, 4, 5, 8, 9}) {
      for (const std::int64_t n : {0, 1, 7, 8, 15, 16, 17, 33, 67}) {
        for (const std::int64_t k : {0, 1, 3, 16, 257}) {
          const std::int64_t ldacc = n + 3;
          const std::int64_t lda = k + 2;
          const std::int64_t ldb = n + 5;
          std::vector<float> a = interesting_floats(
              static_cast<std::size_t>(rows * lda + 1), seed++);
          std::vector<float> b = interesting_floats(
              static_cast<std::size_t>(k * ldb + 1), seed++);
          if (special && rows >= 3 && n >= 1 && k >= 3) {
            a[static_cast<std::size_t>(lda + 1)] = nan;
            a[static_cast<std::size_t>(2 * lda + k - 1)] = -inf;
            a[2] = -0.0f;
            b[static_cast<std::size_t>(ldb + n - 1)] = inf;
            b[static_cast<std::size_t>(2 * ldb + n / 2)] = nan;
            b[static_cast<std::size_t>(n / 3)] = -7.0e-42f;  // subnormal
          }
          const std::size_t used = static_cast<std::size_t>(rows * ldacc);
          const std::size_t total = used + kGuard;
          std::vector<double> acc_init = interesting_doubles(total, seed++);
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t j = n; j < ldacc; ++j) {
              acc_init[static_cast<std::size_t>(r * ldacc + j)] = 12345.0;
            }
          }
          for (std::size_t i = used; i < total; ++i) acc_init[i] = 12345.0;

          simd::set_isa(simd::Isa::kScalar);
          std::vector<double> expected = acc_init;
          simd::ops().gemm_tile_f64(expected.data(), ldacc, a.data(), lda,
                                    b.data(), ldb, rows, n, k);
          for (const simd::Isa isa : isas) {
            simd::set_isa(isa);
            std::vector<double> got = acc_init;
            simd::ops().gemm_tile_f64(got.data(), ldacc, a.data(), lda,
                                      b.data(), ldb, rows, n, k);
            const bool same =
                special ? same_bits_any_nan(got, expected)
                        : std::memcmp(got.data(), expected.data(),
                                      total * sizeof(double)) == 0;
            EXPECT_TRUE(same)
                << "gemm_tile_f64 diverged from scalar: isa="
                << simd::isa_name(isa) << " rows=" << rows << " n=" << n
                << " k=" << k << " special=" << special;
          }
        }
      }
    }
  }
}

// ---- fused multi-row axpy -------------------------------------------------

TEST(SimdMatrix, AxpyRowsF32) {
  // Row r of x starts at r * ldx with ldx > n, so the bytes between rows
  // must never be read into y. The finite pass spans many binades, so any
  // change in the row order shows in the bits; the special pass puts NaN,
  // +/-Inf and -0.0 in both x and a.
  const IsaRestore restore;
  const std::vector<simd::Isa> isas = simd::supported_isas();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::uint64_t seed = 4000;
  for (const bool special : {false, true}) {
    for (const std::int64_t n : {0, 1, 7, 8, 15, 16, 17, 33, 64}) {
      for (const std::int64_t rows : {0, 1, 3, 64}) {
        const std::int64_t ldx = n + 5;
        std::vector<float> x = interesting_floats(
            static_cast<std::size_t>(rows * ldx + 1), seed++);
        std::vector<float> a =
            interesting_floats(static_cast<std::size_t>(rows + 1), seed++);
        if (special && rows >= 3 && n >= 1) {
          x[static_cast<std::size_t>(ldx + n - 1)] = nan;
          x[static_cast<std::size_t>(2 * ldx)] = -inf;
          x[static_cast<std::size_t>(n / 2)] = inf;
          a[1] = -0.0f;
          a[2] = rows == 64 ? nan : inf;
        }
        const std::size_t total = static_cast<std::size_t>(n) + kGuard;
        std::vector<float> y_init = interesting_floats(total, seed++);
        for (std::size_t i = static_cast<std::size_t>(n); i < total; ++i) {
          y_init[i] = 12345.0f;
        }

        simd::set_isa(simd::Isa::kScalar);
        std::vector<float> expected = y_init;
        simd::ops().axpy_rows_f32(expected.data(), x.data(), ldx, a.data(),
                                  rows, n);
        // The fused call is `rows` axpy_f32 calls in ascending row order.
        std::vector<float> unfused = y_init;
        for (std::int64_t r = 0; r < rows; ++r) {
          simd::ops().axpy_f32(unfused.data(), x.data() + r * ldx,
                               a[static_cast<std::size_t>(r)], n);
        }
        EXPECT_TRUE(same_bits_any_nan(unfused, expected))
            << "scalar axpy_rows_f32 differs from axpy_f32 calls: n=" << n
            << " rows=" << rows << " special=" << special;

        for (const simd::Isa isa : isas) {
          simd::set_isa(isa);
          std::vector<float> got = y_init;
          simd::ops().axpy_rows_f32(got.data(), x.data(), ldx, a.data(), rows,
                                    n);
          EXPECT_TRUE(same_bits_any_nan(got, expected))
              << "axpy_rows_f32 diverged from scalar: isa="
              << simd::isa_name(isa) << " n=" << n << " rows=" << rows
              << " special=" << special;
        }
      }
    }
  }
}

// ---- Lane-batched FFT butterfly ---------------------------------------------

TEST(SimdMatrix, FftButterflyLanesF64) {
  // Buffer layout: [a0 (2n doubles) | a1 (2n doubles)]; the one shared
  // twiddle is the first complex of the source buffer.
  expect_matrix_bitwise<double>(
      "fft_butterfly_lanes_f64", 4, interesting_doubles,
      [](const simd::Ops& o, double* d, const double* w, std::int64_t n) {
        o.fft_butterfly_lanes_f64(d, d + 2 * n, w, n);
      });
}

// ---- GELU: fdlibm tanh on every ISA ----------------------------------------

/// The bit thresholds of tanh_ref on |x|, and expm1_ref's thresholds on |a|
/// halved to the tanh input |x| = |a|/2 that reaches them.
std::vector<std::uint32_t> tanh_threshold_bits() {
  using namespace simd::detail;
  std::vector<std::uint32_t> bits = {kTanhSatBits, kTanhOneBits, kTanhTinyBits,
                                     0x7f800000u};
  for (const std::uint32_t t : {kHalfLn2Bits, kThreeHalfLn2Bits,
                                kExpm1TinyBits, kExpm1SatBits}) {
    bits.push_back(t - 0x00800000u);
  }
  return bits;
}

/// Which branch of tanh_ref (and of the expm1_ref it calls) `x` takes.
enum class TanhBranch {
  kNaN, kSaturated, kTiny, kExpm1Tiny, kK0, kKm1, kKFar, kKLower, kKUpper,
  kCount
};

TanhBranch tanh_branch(float x) {
  using namespace simd::detail;
  const std::uint32_t ix = f32_bits(x) & 0x7fffffffu;
  if (ix > 0x7f800000u) return TanhBranch::kNaN;
  if (ix >= kTanhSatBits) return TanhBranch::kSaturated;
  if (ix < kTanhTinyBits) return TanhBranch::kTiny;
  const bool big = ix >= kTanhOneBits;
  const float a = (big ? 2.0f : -2.0f) * f32_from_bits(ix);
  const std::uint32_t ha = f32_bits(a) & 0x7fffffffu;
  if (ha < kExpm1TinyBits) return TanhBranch::kExpm1Tiny;
  if (ha <= kHalfLn2Bits) return TanhBranch::kK0;
  if (ha < kThreeHalfLn2Bits) return TanhBranch::kKm1;
  const int k = static_cast<int>(f32_from_bits(kInvLn2Bits) * a +
                                 (big ? 0.5f : -0.5f));
  if (k <= -2 || k > 56) return TanhBranch::kKFar;
  return k < 23 ? TanhBranch::kKLower : TanhBranch::kKUpper;
}

/// gelu's inner argument C*(x + A*x^3), as gelu_ref computes it.
float gelu_inner(float x) {
  using simd::detail::kGeluA;
  using simd::detail::kGeluC;
  return kGeluC * (x + kGeluA * x * x * x);
}

/// Smallest float x >= 0 with gelu_inner(x) >= target (target in [0, 30]):
/// a bisection over the ordered bit patterns of non-negative floats.
float gelu_inner_preimage(float target) {
  std::uint32_t lo = 0;
  std::uint32_t hi = std::bit_cast<std::uint32_t>(64.0f);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (gelu_inner(std::bit_cast<float>(mid)) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::bit_cast<float>(lo);
}

/// GELU inputs covering every tanh and expm1 branch, both directly (x at
/// each threshold and its neighbours) and through gelu's inner argument
/// (x whose inner lands on each threshold, each k boundary and inside each
/// k range), plus the special classes.
std::vector<float> gelu_pool() {
  std::vector<std::uint32_t> bits = {
      0x00000000u, 0x80000000u,  // +/- zero
      0x00000001u, 0x807fffffu,  // subnormals
      0x7f800000u, 0xff800000u,  // +/- inf
      0x7f7fffffu, 0xff7fffffu,  // +/- max finite: x^3 overflows
      0x7fc00000u, 0xffc12345u,  // quiet NaNs
      0x7f800001u, 0xffb12345u,  // signalling NaNs
  };
  std::vector<float> tanh_targets;
  for (const std::uint32_t t : tanh_threshold_bits()) {
    for (const std::uint32_t b : {t - 1, t, t + 1}) {
      tanh_targets.push_back(std::bit_cast<float>(b));
    }
  }
  // expm1's k steps where 2|x| * invln2 + 0.5 crosses an integer.
  for (const int k : {2, 3, 22, 23, 24, 56, 57, 58}) {
    const float at = static_cast<float>((k - 0.5) * std::log(2.0) / 2.0);
    tanh_targets.push_back(std::nextafter(at, 0.0f));
    tanh_targets.push_back(at);
    tanh_targets.push_back(std::nextafter(at, 100.0f));
  }
  // Inside each range: expm1-tiny, k = 0, -1, -2, 2..22, 23..56, > 56.
  for (const float mid : {1.0e-9f, 0.05f, 0.3f, 0.8f, 3.0f, 12.0f, 20.5f,
                          25.0f}) {
    tanh_targets.push_back(mid);
  }
  for (const float t : tanh_targets) {
    if (t <= 30.0f) {
      const std::uint32_t x = std::bit_cast<std::uint32_t>(
          gelu_inner_preimage(t));
      for (const std::uint32_t b : {x - 1, x, x + 1}) {
        bits.push_back(b);
        bits.push_back(b | 0x80000000u);
      }
    }
    bits.push_back(std::bit_cast<std::uint32_t>(t));
    bits.push_back(std::bit_cast<std::uint32_t>(t) | 0x80000000u);
  }
  std::vector<float> pool;
  for (const std::uint32_t b : bits) pool.push_back(std::bit_cast<float>(b));
  return pool;
}

/// `total` floats, alternately drawn from gelu_pool() in a seed-dependent
/// order (so each pool value lands in vector bodies and in scalar tails
/// across the sizes) and uniform over [-9, 9], where tanh(inner) is neither
/// tiny nor saturated.
std::vector<float> gelu_inputs(std::size_t total, std::uint64_t seed) {
  static const std::vector<float> pool = gelu_pool();
  Rng rng(seed);
  std::vector<float> v(total);
  for (std::size_t i = 0; i < total; ++i) {
    v[i] = i % 2 == 0 ? pool[rng.uniform_index(pool.size())]
                      : static_cast<float>(rng.uniform(-9.0, 9.0));
  }
  return v;
}

TEST(SimdMatrix, GeluPoolReachesEveryTanhBranch) {
  // The pool must drive gelu's inner argument into every branch of
  // tanh_ref and expm1_ref, or the GELU matrices below prove less than they
  // claim.
  std::vector<int> hits(static_cast<std::size_t>(TanhBranch::kCount), 0);
  for (const float x : gelu_pool()) {
    ++hits[static_cast<std::size_t>(tanh_branch(gelu_inner(x)))];
  }
  for (std::size_t b = 0; b < hits.size(); ++b) {
    EXPECT_GT(hits[b], 0) << "no pool input reaches tanh branch " << b;
  }
}

/// Runs `run(ops, dst, src, aux, n)` under scalar then under every
/// supported backend over sizes 0..67 and 1023 at offsets 0/1/3, with `src`
/// from `make_src`, comparing the whole destination (guards included)
/// bytewise, a NaN matching any NaN.
void expect_pool_matrix(
    const char* what,
    const std::function<std::vector<float>(std::size_t, std::uint64_t)>&
        make_src,
    const std::function<void(const simd::Ops&, float*, const float*,
                             const float*, std::int64_t)>& run) {
  const IsaRestore restore;
  const std::vector<simd::Isa> isas = simd::supported_isas();
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(1023);
  std::uint64_t seed = 6000;
  for (const std::int64_t n : sizes) {
    for (const std::int64_t off : kOffsets) {
      const std::size_t used = static_cast<std::size_t>(off + n);
      const std::size_t total = used + kGuard;
      const std::vector<float> src = make_src(total, seed++);
      std::vector<float> aux = interesting_floats(total, seed++);
      aux[total / 2] = std::numeric_limits<float>::infinity();
      aux[total / 3] = std::numeric_limits<float>::quiet_NaN();
      std::vector<float> dst_init = interesting_floats(total, seed++);
      for (std::size_t i = used; i < total; ++i) dst_init[i] = 12345.0f;

      simd::set_isa(simd::Isa::kScalar);
      std::vector<float> expected = dst_init;
      run(simd::ops(), expected.data() + off, src.data() + off,
          aux.data() + off, n);
      for (const simd::Isa isa : isas) {
        simd::set_isa(isa);
        std::vector<float> got = dst_init;
        run(simd::ops(), got.data() + off, src.data() + off,
            aux.data() + off, n);
        EXPECT_TRUE(same_bits_any_nan(got, expected))
            << what << " diverged from scalar: isa=" << simd::isa_name(isa)
            << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdMatrix, GeluF32) {
  expect_pool_matrix("gelu_f32", gelu_inputs, [](const simd::Ops& o, float* d,
                                    const float* s, const float*,
                                    std::int64_t n) { o.gelu_f32(d, s, n); });
  // In place (y == x), as the executor's fused chains call it.
  expect_pool_matrix("gelu_f32 in place", gelu_inputs,
                     [](const simd::Ops& o, float* d, const float* s,
                        const float*, std::int64_t n) {
                       std::memcpy(d, s, static_cast<std::size_t>(n) *
                                             sizeof(float));
                       o.gelu_f32(d, d, n);
                     });
}

TEST(SimdMatrix, GeluGradF32) {
  // aux is gy: finite values over many binades plus an Inf and a NaN.
  expect_pool_matrix("gelu_grad_f32", gelu_inputs,
                     [](const simd::Ops& o, float* d, const float* s,
                        const float* gy, std::int64_t n) {
                       o.gelu_grad_f32(d, gy, s, n);
                     });
}

TEST(SimdMatrix, GeluStridedBitPatterns) {
  // Every 4099th bit pattern (about a million inputs, a quarter of them in
  // the range where tanh is neither tiny nor saturated) through every
  // backend at once: a slip that only shows on a few inputs per binade (a
  // dropped rounding-error term, a reordered product) shows here even when
  // the pool above misses it.
  const IsaRestore restore;
  std::vector<float> x;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    x.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  const std::vector<float> gy = interesting_floats(x.size(), 7000);
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  simd::set_isa(simd::Isa::kScalar);
  std::vector<float> want_y(x.size());
  std::vector<float> want_gx(x.size());
  simd::ops().gelu_f32(want_y.data(), x.data(), n);
  simd::ops().gelu_grad_f32(want_gx.data(), gy.data(), x.data(), n);
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    std::vector<float> y(x.size());
    std::vector<float> gx(x.size());
    simd::ops().gelu_f32(y.data(), x.data(), n);
    simd::ops().gelu_grad_f32(gx.data(), gy.data(), x.data(), n);
    EXPECT_TRUE(same_bits_any_nan(y, want_y))
        << "gelu_f32 diverged from scalar: isa=" << simd::isa_name(isa);
    EXPECT_TRUE(same_bits_any_nan(gx, want_gx))
        << "gelu_grad_f32 diverged from scalar: isa=" << simd::isa_name(isa);
  }
}

TEST(SimdTanh, RefPinnedOverStridedBitPatterns) {
  // A host-independent pin of tanh_ref: the CRC32 of its output over every
  // 4099th bit pattern plus each threshold and its neighbours. The constant
  // is glibc 2.36's std::tanh over the same inputs, so it also pins that
  // the port is libm's tanhf: on every build, whatever the host's libm.
  std::vector<std::uint32_t> inputs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    inputs.push_back(static_cast<std::uint32_t>(u));
  }
  for (const std::uint32_t t : tanh_threshold_bits()) {
    for (const std::uint32_t b : {t - 1, t, t + 1}) {
      inputs.push_back(b);
      inputs.push_back(b | 0x80000000u);
    }
  }
  std::vector<std::uint32_t> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out[i] = simd::detail::f32_bits(
        simd::detail::tanh_ref(simd::detail::f32_from_bits(inputs[i])));
  }
  EXPECT_EQ(crc32(out.data(), out.size() * sizeof(std::uint32_t)),
            0xc9dc4154u);
}

// ---- exp: glibc's expf on every ISA -----------------------------------------

/// exp inputs at every special case and threshold of exp_ref: signed zeros,
/// infinities, NaN payloads, +-88 (where the special-case checks start), the
/// overflow and underflow thresholds and their neighbours, inputs whose
/// results are subnormal, and the inputs where the port without its FMAs
/// returns other bits (an exhaustive sweep finds 0x4202422f and 0xc27c65d9;
/// a strided one misses both).
std::vector<float> exp_pool() {
  using simd::detail::f32_bits;
  std::vector<std::uint32_t> bits = {
      0x00000000u, 0x80000000u,  // +/- zero
      0x00000001u, 0x807fffffu,  // subnormals: exp is 1
      0x7f800000u, 0xff800000u,  // +/- inf
      0x7f7fffffu, 0xff7fffffu,  // +/- max finite
      0x7fc00000u, 0xffc12345u,  // quiet NaNs
      0x7f800001u, 0xffb12345u,  // signalling NaNs
      0x4202422fu, 0xc27c65d9u,  // where dropping the FMAs changes the bits
  };
  for (const float t : {88.0f, -88.0f, simd::detail::kExpOverflow,
                        simd::detail::kExpUnderflow}) {
    for (const std::uint32_t b : {f32_bits(t) - 1, f32_bits(t),
                                  f32_bits(t) + 1}) {
      bits.push_back(b);
    }
  }
  // Subnormal and smallest normal results.
  for (const float x : {-87.3f, -87.4f, -90.0f, -100.0f, -103.0f, -103.9f}) {
    bits.push_back(f32_bits(x));
  }
  std::vector<float> pool;
  for (const std::uint32_t b : bits) pool.push_back(std::bit_cast<float>(b));
  return pool;
}

/// `total` floats, alternately drawn from exp_pool() in a seed-dependent
/// order and uniform over [-110, 90], which spans underflow to overflow.
std::vector<float> exp_inputs(std::size_t total, std::uint64_t seed) {
  static const std::vector<float> pool = exp_pool();
  Rng rng(seed);
  std::vector<float> v(total);
  for (std::size_t i = 0; i < total; ++i) {
    v[i] = i % 2 == 0 ? pool[rng.uniform_index(pool.size())]
                      : static_cast<float>(rng.uniform(-110.0, 90.0));
  }
  return v;
}

TEST(SimdMatrix, ExpF32) {
  expect_pool_matrix("exp_f32", exp_inputs,
                     [](const simd::Ops& o, float* d, const float* s,
                        const float*, std::int64_t n) { o.exp_f32(d, s, n); });
  // In place (y == x), as the attention kernels call it.
  expect_pool_matrix("exp_f32 in place", exp_inputs,
                     [](const simd::Ops& o, float* d, const float* s,
                        const float*, std::int64_t n) {
                       std::memcpy(d, s, static_cast<std::size_t>(n) *
                                             sizeof(float));
                       o.exp_f32(d, d, n);
                     });
}

TEST(SimdExp, RefPinnedOverStridedBitPatterns) {
  // A host-independent pin of exp_ref: the CRC32 of its output over every
  // 4099th bit pattern plus exp_pool(). The constant is glibc 2.36's
  // std::exp(float) on an FMA host over the same inputs, so it also pins
  // that the port is libm's expf there, whatever the host's libm.
  std::vector<std::uint32_t> inputs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    inputs.push_back(static_cast<std::uint32_t>(u));
  }
  for (const float x : exp_pool()) {
    inputs.push_back(simd::detail::f32_bits(x));
  }
  std::vector<std::uint32_t> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out[i] = simd::detail::f32_bits(
        simd::detail::exp_ref(simd::detail::f32_from_bits(inputs[i])));
  }
  EXPECT_EQ(crc32(out.data(), out.size() * sizeof(std::uint32_t)),
            0xf4cb3108u);
}

// ---- dispatch surface ------------------------------------------------------

TEST(SimdDispatch, IsaNameRoundTrip) {
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                              simd::Isa::kAvx512, simd::Isa::kNeon}) {
    simd::Isa parsed = simd::Isa::kScalar;
    EXPECT_TRUE(simd::parse_isa_name(simd::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa out = simd::Isa::kScalar;
  EXPECT_FALSE(simd::parse_isa_name("", &out));
  EXPECT_FALSE(simd::parse_isa_name("AVX2", &out));    // case-sensitive
  EXPECT_FALSE(simd::parse_isa_name("avx2 ", &out));   // full-string match
  EXPECT_FALSE(simd::parse_isa_name("sse", &out));
  EXPECT_FALSE(simd::parse_isa_name(nullptr, &out));
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndActiveIsaValid) {
  EXPECT_TRUE(simd::isa_supported(simd::Isa::kScalar));
  const std::vector<simd::Isa> isas = simd::supported_isas();
  EXPECT_NE(std::find(isas.begin(), isas.end(), simd::Isa::kScalar),
            isas.end());
  EXPECT_TRUE(simd::isa_supported(simd::active_isa()));
  EXPECT_EQ(simd::ops().isa, simd::active_isa());
}

TEST(SimdDispatch, SetIsaRejectsUnsupportedBackend) {
  // x86 hosts never support NEON and aarch64 hosts never support AVX, so at
  // least one backend is guaranteed unsupported everywhere.
  int rejected = 0;
  for (const simd::Isa isa :
       {simd::Isa::kAvx2, simd::Isa::kAvx512, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) {
      EXPECT_THROW(simd::set_isa(isa), Error) << simd::isa_name(isa);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1);
}

TEST(SimdDispatch, SetIsaSwitchesActiveTable) {
  const IsaRestore restore;
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_EQ(simd::ops().isa, isa);
  }
}

// ---- end-to-end goldens under every backend --------------------------------

std::uint32_t sample_crc(const data::Sample& s) {
  Crc32 crc;
  crc.update(s.input.data().data(), s.input.data().size() * sizeof(float));
  crc.update(s.target.data().data(), s.target.data().size() * sizeof(float));
  return crc.value();
}

TEST(SimdEndToEnd, DataPipelineGoldenCrcUnderEveryIsa) {
  // Same pinned hashes as PipelineGolden.FreshTerrainMatchesPreCacheBits:
  // the FFT/filter/normalizer pipeline must produce the pre-SIMD bits no
  // matter which backend is active.
  const IsaRestore restore;
  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    data::DatasetConfig config;
    config.hr_h = 32;
    config.hr_w = 64;
    config.upscale = 4;
    config.seed = 1234;
    config.fixed_region = false;
    data::SyntheticDataset dataset(config);
    EXPECT_EQ(sample_crc(dataset.sample(0)), 0x9757b96fu)
        << "isa=" << simd::isa_name(isa);
    EXPECT_EQ(sample_crc(dataset.sample(3)), 0x0edc3d18u)
        << "isa=" << simd::isa_name(isa);
  }
}

TEST(SimdEndToEnd, ReslimPredictBitwiseAcrossIsas) {
  const IsaRestore restore;
  model::ModelConfig config = model::preset_tiny();
  config.in_channels = 3;
  config.out_channels = 2;
  config.upscale = 2;
  Rng rng(11);
  const model::ReslimModel model(config, rng);

  Tensor input(Shape{3, 12, 20});
  float* p = input.data().data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    p[i] = std::sin(0.013f * static_cast<float>(i) + 0.4f);
  }

  simd::set_isa(simd::Isa::kScalar);
  const Tensor reference = model.predict_field(input);

  for (const simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    const Tensor got = model.predict_field(input);
    ASSERT_EQ(got.shape(), reference.shape());
    EXPECT_EQ(0, std::memcmp(got.data().data(), reference.data().data(),
                             static_cast<std::size_t>(got.numel()) *
                                 sizeof(float)))
        << "predict_field bytes diverged under isa=" << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace orbit2
