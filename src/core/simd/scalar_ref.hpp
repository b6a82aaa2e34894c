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

static inline void scalar_fft_butterfly_f64(double* a0, double* a1,
                                            const double* w, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const double ur = a0[2 * k];
    const double ui = a0[2 * k + 1];
    const double xr = a1[2 * k];
    const double xi = a1[2 * k + 1];
    const double wr = w[2 * k];
    const double wi = w[2 * k + 1];
    const double vr = xr * wr - xi * wi;
    const double vi = xi * wr + xr * wi;
    a0[2 * k] = ur + vr;
    a0[2 * k + 1] = ui + vi;
    a1[2 * k] = ur - vr;
    a1[2 * k + 1] = ui - vi;
  }
}

static inline void scalar_cmul_f64(double* x, const double* y, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const double xr = x[2 * k];
    const double xi = x[2 * k + 1];
    const double yr = y[2 * k];
    const double yi = y[2 * k + 1];
    x[2 * k] = xr * yr - xi * yi;
    x[2 * k + 1] = xi * yr + xr * yi;
  }
}

}  // namespace orbit2::simd::detail
