// NEON microkernels (128-bit, aarch64 baseline). Compiled with
// -ffp-contract=off so vmulq/vaddq never contract to vfma; the only vfma
// instructions are exp's explicit vfmaq_f64 calls.
//
// One float64x2_t holds one complex double; the swapped operand comes from
// vextq_f64 and the even-lane sign flip from an integer XOR (lane 0 is the
// real part), mirroring the AVX-512 recipe.

#if defined(ORBIT2_SIMD_HAVE_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

namespace {

// Row update for the rows and columns the register tiles leave over. Kept
// out of line, like the tile loop below, so the table entry holds no vector
// state and a one-row call reaches this with a plain jump.
[[gnu::noinline]] void neon_gemm_row_f64(double* acc, const float* b, double a,
                                         std::int64_t n) {
  const float64x2_t va = vdupq_n_f64(a);
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t vb = vld1q_f32(b + j);
    const float64x2_t lo = vcvt_f64_f32(vget_low_f32(vb));
    const float64x2_t hi = vcvt_f64_f32(vget_high_f32(vb));
    vst1q_f64(acc + j,
              vaddq_f64(vld1q_f64(acc + j), vmulq_f64(va, lo)));
    vst1q_f64(acc + j + 2,
              vaddq_f64(vld1q_f64(acc + j + 2), vmulq_f64(va, hi)));
  }
  if (j < n) scalar_gemm_row_f64(acc + j, b + j, a, n - j);
}

// A kMR x kNR block of acc lives in 16 float64x2 registers for the whole q
// loop: loaded once, one rounded multiply and one rounded add per q, stored
// once.
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;

// The register tiles, then row updates for what they leave over: the
// columns past the last whole tile in tile rows, and all of each leftover
// row. Out of line: inlined, its register set-up would run on every call.
[[gnu::noinline]] void neon_gemm_tiles(double* acc, std::int64_t ldacc,
                                       const float* a, std::int64_t lda,
                                       const float* b, std::int64_t ldb,
                                       std::int64_t rows, std::int64_t n,
                                       std::int64_t k) {
  const std::int64_t rows_full = rows - rows % kMR;
  const std::int64_t n_full = n - n % kNR;
  for (std::int64_t j = 0; j < n_full; j += kNR) {
    for (std::int64_t r = 0; r < rows_full; r += kMR) {
      double* c = acc + r * ldacc + j;
      const float* ar = a + r * lda;
      // cv[row][quarter] holds acc columns j + 2 * quarter, +1.
      float64x2_t cv[kMR][4];
      for (std::int64_t i = 0; i < kMR; ++i) {
        for (std::int64_t h = 0; h < 4; ++h) {
          cv[i][h] = vld1q_f64(c + i * ldacc + 2 * h);
        }
      }
      const float* bq = b + j;
      for (std::int64_t q = 0; q < k; ++q, bq += ldb) {
        const float32x4_t b03 = vld1q_f32(bq);
        const float32x4_t b47 = vld1q_f32(bq + 4);
        const float64x2_t bv[4] = {vcvt_f64_f32(vget_low_f32(b03)),
                                   vcvt_f64_f32(vget_high_f32(b03)),
                                   vcvt_f64_f32(vget_low_f32(b47)),
                                   vcvt_f64_f32(vget_high_f32(b47))};
        for (std::int64_t i = 0; i < kMR; ++i) {
          const float64x2_t av =
              vdupq_n_f64(static_cast<double>(ar[i * lda + q]));
          for (std::int64_t h = 0; h < 4; ++h) {
            cv[i][h] = vaddq_f64(cv[i][h], vmulq_f64(av, bv[h]));
          }
        }
      }
      for (std::int64_t i = 0; i < kMR; ++i) {
        for (std::int64_t h = 0; h < 4; ++h) {
          vst1q_f64(c + i * ldacc + 2 * h, cv[i][h]);
        }
      }
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t j0 = r < rows_full ? n_full : 0;
    if (j0 == n) continue;
    for (std::int64_t q = 0; q < k; ++q) {
      neon_gemm_row_f64(acc + r * ldacc + j0, b + q * ldb + j0,
                        static_cast<double>(a[r * lda + q]), n - j0);
    }
  }
}

void neon_gemm_tile_f64(double* acc, std::int64_t ldacc, const float* a,
                        std::int64_t lda, const float* b, std::int64_t ldb,
                        std::int64_t rows, std::int64_t n, std::int64_t k) {
  // One row and one step (a conv tap) is a single row update: skip the tile
  // set-up, which costs as much as the update itself at conv row widths.
  if (rows == 1 && k == 1) {
    neon_gemm_row_f64(acc, b, static_cast<double>(a[0]), n);
    return;
  }
  neon_gemm_tiles(acc, ldacc, a, lda, b, ldb, rows, n, k);
}

void neon_axpy_f32(float* y, const float* x, float a, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i,
              vaddq_f32(vld1q_f32(y + i), vmulq_f32(va, vld1q_f32(x + i))));
  }
  if (i < n) scalar_axpy_f32(y + i, x + i, a, n - i);
}

void neon_axpy_rows_f32(float* y, const float* x, std::int64_t ldx,
                        const float* a, std::int64_t rows, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t vy = vld1q_f32(y + i);
    const float* xr = x + i;
    for (std::int64_t r = 0; r < rows; ++r, xr += ldx) {
      vy = vaddq_f32(vy, vmulq_f32(vdupq_n_f32(a[r]), vld1q_f32(xr)));
    }
    vst1q_f32(y + i, vy);
  }
  if (i < n) scalar_axpy_rows_f32(y + i, x + i, ldx, a, rows, n - i);
}

void neon_scale_f32(float* y, float a, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), va));
  }
  if (i < n) scalar_scale_f32(y + i, a, n - i);
}

void neon_add_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(dst + i), vld1q_f32(a + i)));
  }
  if (i < n) scalar_add_f32(dst + i, a + i, n - i);
}

void neon_sub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vsubq_f32(vld1q_f32(dst + i), vld1q_f32(a + i)));
  }
  if (i < n) scalar_sub_f32(dst + i, a + i, n - i);
}

void neon_rsub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(dst + i)));
  }
  if (i < n) scalar_rsub_f32(dst + i, a + i, n - i);
}

void neon_mul_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), vld1q_f32(a + i)));
  }
  if (i < n) scalar_mul_f32(dst + i, a + i, n - i);
}

// vmaxq_f32 propagates NaN, so select on dst < a instead: NaNs and equal
// zeros keep dst, as (dst < a) ? a : dst does.
void neon_max_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vd = vld1q_f32(dst + i);
    const float32x4_t va = vld1q_f32(a + i);
    vst1q_f32(dst + i, vbslq_f32(vcltq_f32(vd, va), va, vd));
  }
  if (i < n) scalar_max_f32(dst + i, a + i, n - i);
}

void neon_bf16_round_f32(float* y, std::int64_t n) {
  const uint32x4_t abs_mask = vdupq_n_u32(0x7fffffffu);
  const uint32x4_t inf_bits = vdupq_n_u32(0x7f800000u);
  const uint32x4_t quiet_bit = vdupq_n_u32(0x00400000u);
  const uint32x4_t round_base = vdupq_n_u32(0x7fffu);
  const uint32x4_t one = vdupq_n_u32(1u);
  const uint32x4_t hi_mask = vdupq_n_u32(0xffff0000u);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t bits =
        vreinterpretq_u32_f32(vld1q_f32(y + i));
    const uint32x4_t lsb = vandq_u32(vshrq_n_u32(bits, 16), one);
    const uint32x4_t rounded =
        vaddq_u32(bits, vaddq_u32(round_base, lsb));
    const uint32x4_t quieted = vorrq_u32(bits, quiet_bit);
    const uint32x4_t is_nan =
        vcgtq_u32(vandq_u32(bits, abs_mask), inf_bits);
    const uint32x4_t selected = vbslq_u32(is_nan, quieted, rounded);
    vst1q_f32(y + i,
              vreinterpretq_f32_u32(vandq_u32(selected, hi_mask)));
  }
  if (i < n) scalar_bf16_round_f32(y + i, n - i);
}

// v = x * w for one complex double per vector (lane 0 = real), with wr and
// wi holding the twiddle's real and imaginary part in both lanes: flip the
// sign of the real lane of swapped*wi, then add.
inline float64x2_t cmul128(float64x2_t x, float64x2_t wr, float64x2_t wi) {
  const uint64x2_t even_sign =
      vcombine_u64(vdup_n_u64(0x8000000000000000ull), vdup_n_u64(0));
  const float64x2_t swapped = vextq_f64(x, x, 1);
  const float64x2_t t1 = vmulq_f64(x, wr);
  const float64x2_t t2 = vmulq_f64(swapped, wi);
  const float64x2_t t2_flipped = vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(t2), even_sign));
  return vaddq_f64(t1, t2_flipped);
}

void neon_fft_butterfly_lanes_f64(double* a0, double* a1, const double* w,
                                  std::int64_t lanes) {
  const float64x2_t wr = vdupq_n_f64(w[0]);
  const float64x2_t wi = vdupq_n_f64(w[1]);
  for (std::int64_t l = 0; l < lanes; ++l) {
    const float64x2_t v = cmul128(vld1q_f64(a1 + 2 * l), wr, wi);
    const float64x2_t u = vld1q_f64(a0 + 2 * l);
    vst1q_f64(a0 + 2 * l, vaddq_f64(u, v));
    vst1q_f64(a1 + 2 * l, vsubq_f64(u, v));
  }
}

// fdlibm tanhf (scalar_ref.hpp tanh_ref) on 4 lanes. Every branch of the
// reference runs on every lane and a bit select picks each lane's result,
// so each lane sees exactly the reference's float operations.
//
// expm1 only sees tanh's arguments: 2|x| >= 2 for |x| >= 1, else -2|x| in
// (-2, -2^-54]. So the reference's overflow, -1 saturation and k = +1 cases
// never fire; the cases left are |a| < 2^-25, k = 0, k = -1, k <= -2 or
// k > 56, 2 <= k < 23 and 23 <= k <= 56.
inline float32x4_t neon_tanh(float32x4_t x) {
  const uint32x4_t abs_mask = vdupq_n_u32(0x7fffffffu);
  const uint32x4_t sign_mask = vdupq_n_u32(0x80000000u);
  const uint32x4_t one_bits = vdupq_n_u32(0x3f800000u);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t two = vdupq_n_f32(2.0f);
  const float32x4_t half = vdupq_n_f32(0.5f);

  const uint32x4_t jx = vreinterpretq_u32_f32(x);
  const uint32x4_t ix = vandq_u32(jx, abs_mask);
  const uint32x4_t sign = vbicq_u32(jx, abs_mask);
  // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t+2); else t = expm1(-2|x|),
  // z = -t/(t+2).
  const uint32x4_t big = vcgeq_u32(ix, vdupq_n_u32(kTanhOneBits));
  const uint32x4_t two_ax =
      vreinterpretq_u32_f32(vmulq_f32(two, vreinterpretq_f32_u32(ix)));
  const float32x4_t a = vreinterpretq_f32_u32(
      veorq_u32(two_ax, vbicq_u32(sign_mask, big)));

  // expm1(a): k and the reduced argument xr = a - k*ln2 = hi - lo.
  const float32x4_t round_half = vbslq_f32(big, half, vdupq_n_f32(-0.5f));
  int32x4_t k = vcvtq_s32_f32(vaddq_f32(
      vmulq_f32(vdupq_n_f32(f32_from_bits(kInvLn2Bits)), a), round_half));
  k = vbslq_s32(vcltq_u32(two_ax, vdupq_n_u32(kThreeHalfLn2Bits)),
                vdupq_n_s32(-1), k);
  k = vbslq_s32(vcleq_u32(two_ax, vdupq_n_u32(kHalfLn2Bits)),
                vdupq_n_s32(0), k);
  const float32x4_t tk = vcvtq_f32_s32(k);
  const float32x4_t hi =
      vsubq_f32(a, vmulq_f32(tk, vdupq_n_f32(f32_from_bits(kLn2HiBits))));
  const float32x4_t lo = vmulq_f32(tk, vdupq_n_f32(f32_from_bits(kLn2LoBits)));
  const float32x4_t xr = vsubq_f32(hi, lo);
  const float32x4_t c = vsubq_f32(vsubq_f32(hi, xr), lo);

  const float32x4_t hfx = vmulq_f32(half, xr);
  const float32x4_t hxs = vmulq_f32(xr, hfx);
  float32x4_t p = vmulq_f32(hxs, vdupq_n_f32(f32_from_bits(kQ5Bits)));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(f32_from_bits(kQ4Bits)), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(f32_from_bits(kQ3Bits)), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(f32_from_bits(kQ2Bits)), p));
  p = vmulq_f32(hxs, vaddq_f32(vdupq_n_f32(f32_from_bits(kQ1Bits)), p));
  const float32x4_t r1 = vaddq_f32(one, p);
  const float32x4_t t = vsubq_f32(vdupq_n_f32(3.0f), vmulq_f32(r1, hfx));
  const float32x4_t e = vmulq_f32(
      hxs, vdivq_f32(vsubq_f32(r1, t),
                     vsubq_f32(vdupq_n_f32(6.0f), vmulq_f32(xr, t))));
  // k == 0.
  const float32x4_t r_k0 = vsubq_f32(xr, vsubq_f32(vmulq_f32(xr, e), hxs));
  const float32x4_t e2 =
      vsubq_f32(vsubq_f32(vmulq_f32(xr, vsubq_f32(e, c)), c), hxs);
  // k == -1.
  const float32x4_t r_km1 =
      vsubq_f32(vmulq_f32(half, vsubq_f32(xr, e2)), half);
  // k <= -2 or k > 56: y = 1 - (e - x); 2 <= k < 23: y = (1 - 2^-k) - (e - x);
  // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1. Then k joins y's exponent, and
  // the first case subtracts 1. vshlq by -k shifts right by k.
  const uint32x4_t far = vorrq_u32(vcltq_s32(k, vdupq_n_s32(-1)),
                                   vcgtq_s32(k, vdupq_n_s32(56)));
  const uint32x4_t upper = vbicq_u32(vcgeq_s32(k, vdupq_n_s32(23)), far);
  const uint32x4_t t_lower = vbslq_u32(
      far, one_bits,
      vsubq_u32(one_bits, vshlq_u32(vdupq_n_u32(0x1000000u), vnegq_s32(k))));
  const uint32x4_t t_upper =
      vshlq_n_u32(vreinterpretq_u32_s32(vsubq_s32(vdupq_n_s32(0x7f), k)), 23);
  const float32x4_t y_lower =
      vsubq_f32(vreinterpretq_f32_u32(t_lower), vsubq_f32(e2, xr));
  const float32x4_t y_upper = vaddq_f32(
      vsubq_f32(xr, vaddq_f32(e2, vreinterpretq_f32_u32(t_upper))), one);
  float32x4_t y = vreinterpretq_f32_u32(
      vaddq_u32(vreinterpretq_u32_f32(vbslq_f32(upper, y_upper, y_lower)),
                vreinterpretq_u32_s32(vshlq_n_s32(k, 23))));
  y = vbslq_f32(far, vsubq_f32(y, one), y);
  float32x4_t em1 = y;
  em1 = vbslq_f32(vceqq_s32(k, vdupq_n_s32(-1)), r_km1, em1);
  em1 = vbslq_f32(vceqq_s32(k, vdupq_n_s32(0)), r_k0, em1);
  // |a| < 2^-25: expm1(a) = a.
  em1 = vbslq_f32(vcltq_u32(two_ax, vdupq_n_u32(kExpm1TinyBits)), a, em1);

  // tanh: one division serves both halves.
  const float32x4_t num = vbslq_f32(big, two, vnegq_f32(em1));
  const float32x4_t q = vdivq_f32(num, vaddq_f32(em1, two));
  const float32x4_t z = vbslq_f32(big, vsubq_f32(one, q), q);
  float32x4_t r =
      vreinterpretq_f32_u32(veorq_u32(vreinterpretq_u32_f32(z), sign));
  // |x| >= 22 and +-Inf: +-1. NaN: 1/x +- 1 is x quieted, as is x + x.
  r = vbslq_f32(vcgeq_u32(ix, vdupq_n_u32(kTanhSatBits)),
                vreinterpretq_f32_u32(vorrq_u32(one_bits, sign)), r);
  r = vbslq_f32(vcgtq_u32(ix, vdupq_n_u32(0x7f800000u)), vaddq_f32(x, x), r);
  // |x| < 2^-55, zeros included: x * (1 + x).
  return vbslq_f32(vcltq_u32(ix, vdupq_n_u32(kTanhTinyBits)),
                   vmulq_f32(x, vaddq_f32(one, x)), r);
}

// inner = C * (x + A*x*x*x), as in gelu_ref.
inline float32x4_t neon_gelu_inner(float32x4_t x) {
  const float32x4_t cube =
      vmulq_f32(vmulq_f32(vmulq_f32(vdupq_n_f32(kGeluA), x), x), x);
  return vmulq_f32(vdupq_n_f32(kGeluC), vaddq_f32(x, cube));
}

void neon_gelu_f32(float* y, const float* x, std::int64_t n) {
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t th = neon_tanh(neon_gelu_inner(vx));
    vst1q_f32(y + i, vmulq_f32(vmulq_f32(half, vx), vaddq_f32(one, th)));
  }
  if (i < n) scalar_gelu_f32(y + i, x + i, n - i);
}

void neon_gelu_grad_f32(float* gx, const float* gy, const float* x,
                        std::int64_t n) {
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t a3 = vdupq_n_f32(3.0f * kGeluA);
  const float32x4_t gelu_c = vdupq_n_f32(kGeluC);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t t = neon_tanh(neon_gelu_inner(vx));
    const float32x4_t sech2 = vsubq_f32(one, vmulq_f32(t, t));
    const float32x4_t dinner =
        vmulq_f32(gelu_c, vaddq_f32(one, vmulq_f32(vmulq_f32(a3, vx), vx)));
    const float32x4_t grad =
        vaddq_f32(vmulq_f32(half, vaddq_f32(one, t)),
                  vmulq_f32(vmulq_f32(vmulq_f32(half, vx), sech2), dinner));
    vst1q_f32(gx + i, vmulq_f32(vld1q_f32(gy + i), grad));
  }
  if (i < n) scalar_gelu_grad_f32(gx + i, gy + i, x + i, n - i);
}

// exp_ref on 2 lanes, in double: the five FMAs are explicit vfmaq_f64
// (a + b*c, one rounding), every other step is one rounded operation, as in
// the reference. The table entries are two scalar loads.
inline float32x2_t neon_exp2(float32x2_t x) {
  const float64x2_t xd = vcvt_f64_f32(x);
  const float64x2_t shift = vdupq_n_f64(kExpShift);
  const float64x2_t inv_ln2n = vdupq_n_f64(kExpInvLn2N);
  float64x2_t kd = vfmaq_f64(shift, inv_ln2n, xd);
  const uint64x2_t ki = vreinterpretq_u64_f64(kd);
  kd = vsubq_f64(kd, shift);
  const float64x2_t r = vfmaq_f64(vnegq_f64(kd), inv_ln2n, xd);
  const uint64x2_t entry =
      vcombine_u64(vdup_n_u64(kExp2Table[vgetq_lane_u64(ki, 0) % 32]),
                   vdup_n_u64(kExp2Table[vgetq_lane_u64(ki, 1) % 32]));
  const float64x2_t s =
      vreinterpretq_f64_u64(vaddq_u64(entry, vshlq_n_u64(ki, 47)));
  const float64x2_t z =
      vfmaq_f64(vdupq_n_f64(kExpC1), vdupq_n_f64(kExpC0), r);
  const float64x2_t r2 = vmulq_f64(r, r);
  float64x2_t y = vfmaq_f64(vdupq_n_f64(1.0), vdupq_n_f64(kExpC2), r);
  y = vfmaq_f64(y, z, r2);
  y = vmulq_f64(y, s);
  // x > overflow: +Inf; x < underflow (-Inf included): +0; NaN: x + x.
  y = vbslq_f64(vcgtq_f64(xd, vdupq_n_f64(kExpOverflow)),
                vdupq_n_f64(f64_from_bits(0x7ff0000000000000u)), y);
  y = vbslq_f64(vcltq_f64(xd, vdupq_n_f64(kExpUnderflow)), vdupq_n_f64(0.0),
                y);
  return vbsl_f32(vceq_f32(x, x), vcvt_f32_f64(y), vadd_f32(x, x));
}

void neon_exp_f32(float* y, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // The whole vector is read before it is written: y may equal x.
    const float32x4_t vx = vld1q_f32(x + i);
    vst1q_f32(y + i, vcombine_f32(neon_exp2(vget_low_f32(vx)),
                                  neon_exp2(vget_high_f32(vx))));
  }
  if (i < n) scalar_exp_f32(y + i, x + i, n - i);
}

}  // namespace

const Ops* neon_ops() {
  static const Ops table = {
      Isa::kNeon,
      neon_gemm_tile_f64,
      neon_axpy_f32,
      neon_axpy_rows_f32,
      neon_scale_f32,
      neon_add_f32,
      neon_sub_f32,
      neon_rsub_f32,
      neon_mul_f32,
      neon_max_f32,
      neon_bf16_round_f32,
      neon_fft_butterfly_lanes_f64,
      neon_gelu_f32,
      neon_gelu_grad_f32,
      neon_exp_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_NEON
