#pragma once
// Scalar reference implementations of every simd::Ops primitive.
//
// These are the semantic ground truth of the determinism contract: each
// vector ISA must reproduce them bit-for-bit, and the vector TUs call them
// directly for remainder tails shorter than one vector. Keep every loop
// body a straight transcription of the contract in simd.hpp — operand
// order included — because the ISA-matrix test pins vector output against
// exactly this code.
//
// All functions are static (internal linkage) on purpose: the header is
// included by TUs built with -mavx2/-mavx512f, where the optimizer may
// auto-vectorize these loops with AVX instructions. External-linkage inline
// would let the linker keep such an instantiation for every caller —
// including the scalar table, which must stay runnable on hosts without
// those ISAs. Internal linkage keeps each TU's copy confined to code paths
// already gated on that TU's ISA.

#include <cstdint>
#include <cstring>

#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

// One row update of the GEMM tile: acc[j] += a * double(b[j]). The vector
// backends run it for the rows and columns their register tiles leave over.
static inline void scalar_gemm_row_f64(double* acc, const float* b, double a,
                                       std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    acc[j] += a * static_cast<double>(b[j]);
  }
}

static inline void scalar_gemm_tile_f64(double* acc, std::int64_t ldacc,
                                        const float* a, std::int64_t lda,
                                        const float* b, std::int64_t ldb,
                                        std::int64_t rows, std::int64_t n,
                                        std::int64_t k) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t q = 0; q < k; ++q) {
      scalar_gemm_row_f64(acc + r * ldacc, b + q * ldb,
                          static_cast<double>(a[r * lda + q]), n);
    }
  }
}

static inline void scalar_axpy_f32(float* y, const float* x, float a,
                                   std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += a * x[i];
  }
}

static inline void scalar_axpy_rows_f32(float* y, const float* x,
                                        std::int64_t ldx, const float* a,
                                        std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    scalar_axpy_f32(y, x + r * ldx, a[r], n);
  }
}

static inline void scalar_scale_f32(float* y, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] *= a;
  }
}

static inline void scalar_add_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] + a[i];
  }
}

static inline void scalar_sub_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] - a[i];
  }
}

static inline void scalar_rsub_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = a[i] - dst[i];
  }
}

static inline void scalar_mul_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = dst[i] * a[i];
  }
}

// Mirrors core/bf16.hpp round_from_float ∘ to_float as one bit-level pass:
// NaN payloads collapse to a quiet pattern, everything else rounds to
// nearest-even in the top 16 bits. Both branches reduce to masking the low
// 16 bits of a selected 32-bit value, which is what the vector paths do.
static inline float scalar_bf16_round_one(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::uint32_t selected;
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    selected = bits | 0x00400000u;
  } else {
    selected = bits + (0x7fffu + ((bits >> 16) & 1u));
  }
  const std::uint32_t out = selected & 0xffff0000u;
  float result;
  std::memcpy(&result, &out, sizeof(result));
  return result;
}

static inline void scalar_bf16_round_f32(float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = scalar_bf16_round_one(y[i]);
  }
}

static inline void scalar_fft_butterfly_lanes_f64(double* a0, double* a1,
                                                  const double* w,
                                                  std::int64_t lanes) {
  const double wr = w[0];
  const double wi = w[1];
  for (std::int64_t l = 0; l < lanes; ++l) {
    const double ur = a0[2 * l];
    const double ui = a0[2 * l + 1];
    const double xr = a1[2 * l];
    const double xi = a1[2 * l + 1];
    const double vr = xr * wr - xi * wi;
    const double vi = xi * wr + xr * wi;
    a0[2 * l] = ur + vr;
    a0[2 * l + 1] = ui + vi;
    a1[2 * l] = ur - vr;
    a1[2 * l + 1] = ui - vi;
  }
}

// ---- GELU ---------------------------------------------------------------
//
// tanh_ref is fdlibm's tanhf (s_tanhf.c) with the expm1f it calls
// (s_expm1f.c), the code glibc's libm runs for tanhf (glibc 2.36 on x86-64
// and aarch64). Both use float operations only, so this port reproduces that
// tanhf bit for bit on every input (FP flags and errno aside: nothing reads
// them), and the vector backends reproduce this port. Results therefore no
// longer depend on which libm the host links. The fdlibm notice for both files:
//
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
//   Developed at SunPro, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this
//   software is freely granted, provided that this notice
//   is preserved.
//
//   Conversion to float by Ian Lance Taylor, Cygnus Support,
//   ian@cygnus.com.

// The fdlibm constants, by bit pattern.
constexpr std::uint32_t kLn2HiBits = 0x3f317180u;
constexpr std::uint32_t kLn2LoBits = 0x3717f7d1u;
constexpr std::uint32_t kInvLn2Bits = 0x3fb8aa3bu;
constexpr std::uint32_t kQ1Bits = 0xbd088889u;
constexpr std::uint32_t kQ2Bits = 0x3ad00d01u;
constexpr std::uint32_t kQ3Bits = 0xb8a670cdu;
constexpr std::uint32_t kQ4Bits = 0x36867e54u;
constexpr std::uint32_t kQ5Bits = 0xb457edbbu;
// expm1f thresholds on |x|: 0.5*ln2, 1.5*ln2, 2^-25, 27*ln2, 88.72 (log of
// FLT_MAX).
constexpr std::uint32_t kHalfLn2Bits = 0x3eb17218u;
constexpr std::uint32_t kThreeHalfLn2Bits = 0x3f851592u;
constexpr std::uint32_t kExpm1TinyBits = 0x33000000u;
constexpr std::uint32_t kExpm1SatBits = 0x4195b844u;
constexpr std::uint32_t kExpm1OverflowBits = 0x42b17218u;
// tanhf thresholds on |x|: 22 (tanh rounds to +-1), 1, 2^-55.
constexpr std::uint32_t kTanhSatBits = 0x41b00000u;
constexpr std::uint32_t kTanhOneBits = 0x3f800000u;
constexpr std::uint32_t kTanhTinyBits = 0x24000000u;

// GELU's tanh approximation constants: sqrt(2/pi) and the cubic weight.
constexpr float kGeluC = 0.7978845608028654f;
constexpr float kGeluA = 0.044715f;

static inline std::uint32_t f32_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

static inline float f32_from_bits(std::uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

static inline float expm1_ref(float x) {
  const float huge = 1.0e+30f;
  const float tiny = 1.0e-30f;
  const float o_threshold = 8.8721679688e+01f;
  const float ln2_hi = f32_from_bits(kLn2HiBits);
  const float ln2_lo = f32_from_bits(kLn2LoBits);
  const float invln2 = f32_from_bits(kInvLn2Bits);
  const float q1 = f32_from_bits(kQ1Bits);
  const float q2 = f32_from_bits(kQ2Bits);
  const float q3 = f32_from_bits(kQ3Bits);
  const float q4 = f32_from_bits(kQ4Bits);
  const float q5 = f32_from_bits(kQ5Bits);

  std::uint32_t hx = f32_bits(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= kExpm1SatBits) {
    if (hx >= kExpm1OverflowBits) {
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return negative ? -1.0f : x;
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (negative) return tiny - 1.0f;  // x < -27*ln2: -1
  }

  // Argument reduction: x = k*ln2 + (hi - lo), c the rounding error of hi-lo.
  float hi;
  float lo;
  float c = 0.0f;
  int k;
  if (hx > kHalfLn2Bits) {
    if (hx < kThreeHalfLn2Bits) {
      if (!negative) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<int>(invln2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t*ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1TinyBits) {
    const float t = huge + x;  // |x| < 2^-25: x
    return x - (t - (huge + x));
  } else {
    k = 0;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  // Adds k to y's exponent.
  const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {
    const float y = 1.0f - (e - x);
    return f32_from_bits(f32_bits(y) + k_exp) - 1.0f;
  }
  if (k < 23) {
    const float t1 = f32_from_bits(0x3f800000u - (0x1000000u >> k));  // 1-2^-k
    const float y = t1 - (e - x);
    return f32_from_bits(f32_bits(y) + k_exp);
  }
  const float t2 = f32_from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);
  float y = x - (e + t2);  // t2 = 2^-k
  y += 1.0f;
  return f32_from_bits(f32_bits(y) + k_exp);
}

static inline float tanh_ref(float x) {
  const std::uint32_t jx = f32_bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  // Inf or NaN: +-1 for +-Inf, NaN for NaN.
  if (ix >= 0x7f800000u) {
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }

  float z;
  if (ix < kTanhSatBits) {
    if (ix == 0) return x;  // +-0
    if (ix < kTanhTinyBits) return x * (1.0f + x);  // |x| < 2^-55
    const float ax = f32_from_bits(ix);
    if (ix >= kTanhOneBits) {
      const float t = expm1_ref(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_ref(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - 1.0e-30f;  // |x| >= 22: +-1
  }
  return negative ? -z : z;
}

// The tanh-approximation GELU (the ViT default) and its derivative, in the
// operation order every backend reproduces:
//   inner = C * (x + A*x*x*x)
//   gelu(x) = 0.5*x * (1 + tanh(inner))
//   gelu'(x) = 0.5*(1 + t) + 0.5*x * (1 - t*t) * C*(1 + 3A*x*x), t = tanh(inner)
static inline float gelu_ref(float x) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + tanh_ref(inner));
}

static inline float gelu_grad_ref(float x) {
  const float inner = kGeluC * (x + kGeluA * x * x * x);
  const float t = tanh_ref(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

static inline void scalar_gelu_f32(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = gelu_ref(x[i]);
  }
}

static inline void scalar_gelu_grad_f32(float* gx, const float* gy,
                                        const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    gx[i] = gy[i] * gelu_grad_ref(x[i]);
  }
}

}  // namespace orbit2::simd::detail
