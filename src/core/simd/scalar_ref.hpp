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

#include <cmath>
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

static inline void scalar_max_f32(float* dst, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = (dst[i] < a[i]) ? a[i] : dst[i];
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

// ---- exp ------------------------------------------------------------------
//
// exp_ref is expf from Arm's optimized-routines (math/expf.c), the code glibc
// 2.36 ships as e_expf.c. glibc's x86-64 libm builds it twice and picks the
// FMA build at run time on hosts with FMA; exp_ref is that build: its five
// std::fma calls are exactly where the FMA build's compiler fuses a multiply
// and an add, and every other operation is rounded on its own. std::fma is
// correctly rounded with or without a hardware FMA, so exp_ref returns the
// same bits on every host: those of glibc's expf on an FMA host (all 2^32
// inputs, NaN matching NaN), and the defining bits elsewhere. The routine's
// notice:
//
//   Copyright (c) 2017-2018, Arm Limited.
//   SPDX-License-Identifier: MIT

// 2^(i/32) for i in [0, 32), each minus i << 47 so that adding k << 47
// (k = i mod 32) rebuilds 2^(k/32) with k's high bits in the exponent.
constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000u, 0x3fefd9b0d3158574u, 0x3fefb5586cf9890fu,
    0x3fef9301d0125b51u, 0x3fef72b83c7d517bu, 0x3fef54873168b9aau,
    0x3fef387a6e756238u, 0x3fef1e9df51fdee1u, 0x3fef06fe0a31b715u,
    0x3feef1a7373aa9cbu, 0x3feedea64c123422u, 0x3feece086061892du,
    0x3feebfdad5362a27u, 0x3feeb42b569d4f82u, 0x3feeab07dd485429u,
    0x3feea47eb03a5585u, 0x3feea09e667f3bcdu, 0x3fee9f75e8ec5f74u,
    0x3feea11473eb0187u, 0x3feea589994cce13u, 0x3feeace5422aa0dbu,
    0x3feeb737b0cdc5e5u, 0x3feec49182a3f090u, 0x3feed503b23e255du,
    0x3feee89f995ad3adu, 0x3feeff76f2fb5e47u, 0x3fef199bdd85529cu,
    0x3fef3720dcef9069u, 0x3fef5818dcfba487u, 0x3fef7c97337b9b5fu,
    0x3fefa4afa2a490dau, 0x3fefd0765b6e4540u,
};
// 32/ln2, the round-to-integer shift 1.5 * 2^52, and the cubic's
// coefficients, pre-scaled for an r in units of 1/32.
constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
// The top 12 bits of |88.0f|: at and above them the special cases are
// checked. Above kExpOverflow exp overflows to +Inf; below kExpUnderflow it
// rounds to +0.
constexpr std::uint32_t kExpBigTop = 0x42bu;
constexpr float kExpOverflow = 0x1.62e42ep6f;
constexpr float kExpUnderflow = -0x1.9fe368p6f;

static inline std::uint64_t f64_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

static inline double f64_from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

static inline float exp_ref(float x) {
  const std::uint32_t abstop = (f32_bits(x) >> 20) & 0x7ffu;
  if (abstop >= kExpBigTop) {  // |x| >= 88, or x is Inf or NaN
    if (f32_bits(x) == 0xff800000u) return 0.0f;  // -Inf
    if (abstop >= 0x7f8u) return x + x;           // +Inf, NaN
    if (x > kExpOverflow) return f32_from_bits(0x7f800000u);
    if (x < kExpUnderflow) return 0.0f;
  }
  // x * 32/ln2 = k + r with r in [-1/2, 1/2]: adding the shift rounds to
  // the integer k in the low bits of kd's mantissa.
  const double xd = static_cast<double>(x);
  double kd = std::fma(kExpInvLn2N, xd, kExpShift);
  const std::uint64_t ki = f64_bits(kd);
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  // exp(x) = 2^(k/32) * 2^(r/32) ~= s * (C0*r^3 + C1*r^2 + C2*r + 1).
  const double s = f64_from_bits(kExp2Table[ki % 32] + (ki << 47));
  const double z = std::fma(kExpC0, r, kExpC1);
  const double r2 = r * r;
  double y = std::fma(kExpC2, r, 1.0);
  y = std::fma(z, r2, y);
  return static_cast<float>(y * s);
}

static inline void scalar_exp_f32(float* y, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = exp_ref(x[i]);
  }
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
