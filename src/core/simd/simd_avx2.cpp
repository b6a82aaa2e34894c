// AVX2 microkernels (256-bit). Compiled with -mavx2 -ffp-contract=off;
// runtime-gated by __builtin_cpu_supports("avx2") in simd.cpp.
//
// Bit-exactness notes:
//   * Float->double promotion uses vcvtps2pd (exact); multiply and add stay
//     separate instructions (no vfmadd — the TU disables contraction).
//   * Complex products use vmovddup/vpermilpd to form (wr,wr)/(wi,wi) and
//     the swapped (xi,xr), then vaddsubpd combines: even lane
//     t1-t2 = xr*wr - xi*wi, odd lane t1+t2 = xi*wr + xr*wi — exactly the
//     scalar reference's operand order.
//   * Remainder tails call the scalar reference per element.

#if defined(ORBIT2_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

namespace {

// Row update for the rows and columns the register tiles leave over. Kept
// out of line, like the tile loop below, so the table entry holds no vector
// state and a one-row call reaches this with a plain jump.
[[gnu::noinline]] void avx2_gemm_row_f64(double* acc, const float* b, double a,
                                         std::int64_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + j));
    const __m256d vacc = _mm256_loadu_pd(acc + j);
    _mm256_storeu_pd(acc + j, _mm256_add_pd(vacc, _mm256_mul_pd(va, vb)));
  }
  if (j < n) scalar_gemm_row_f64(acc + j, b + j, a, n - j);
}

// A kMR x kNR block of acc lives in 8 ymm registers for the whole q loop:
// loaded once, one rounded multiply and one rounded add per q, stored once.
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 8;

// The register tiles, then row updates for what they leave over: the
// columns past the last whole tile in tile rows, and all of each leftover
// row. Out of line: inlined, its register set-up would run on every call.
[[gnu::noinline]] void avx2_gemm_tiles(double* acc, std::int64_t ldacc,
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
      __m256d c0l = _mm256_loadu_pd(c);
      __m256d c0h = _mm256_loadu_pd(c + 4);
      __m256d c1l = _mm256_loadu_pd(c + ldacc);
      __m256d c1h = _mm256_loadu_pd(c + ldacc + 4);
      __m256d c2l = _mm256_loadu_pd(c + 2 * ldacc);
      __m256d c2h = _mm256_loadu_pd(c + 2 * ldacc + 4);
      __m256d c3l = _mm256_loadu_pd(c + 3 * ldacc);
      __m256d c3h = _mm256_loadu_pd(c + 3 * ldacc + 4);
      const float* bq = b + j;
      for (std::int64_t q = 0; q < k; ++q, bq += ldb) {
        const __m256d bl = _mm256_cvtps_pd(_mm_loadu_ps(bq));
        const __m256d bh = _mm256_cvtps_pd(_mm_loadu_ps(bq + 4));
        const __m256d a0 = _mm256_set1_pd(static_cast<double>(ar[q]));
        c0l = _mm256_add_pd(c0l, _mm256_mul_pd(a0, bl));
        c0h = _mm256_add_pd(c0h, _mm256_mul_pd(a0, bh));
        const __m256d a1 = _mm256_set1_pd(static_cast<double>(ar[lda + q]));
        c1l = _mm256_add_pd(c1l, _mm256_mul_pd(a1, bl));
        c1h = _mm256_add_pd(c1h, _mm256_mul_pd(a1, bh));
        const __m256d a2 =
            _mm256_set1_pd(static_cast<double>(ar[2 * lda + q]));
        c2l = _mm256_add_pd(c2l, _mm256_mul_pd(a2, bl));
        c2h = _mm256_add_pd(c2h, _mm256_mul_pd(a2, bh));
        const __m256d a3 =
            _mm256_set1_pd(static_cast<double>(ar[3 * lda + q]));
        c3l = _mm256_add_pd(c3l, _mm256_mul_pd(a3, bl));
        c3h = _mm256_add_pd(c3h, _mm256_mul_pd(a3, bh));
      }
      _mm256_storeu_pd(c, c0l);
      _mm256_storeu_pd(c + 4, c0h);
      _mm256_storeu_pd(c + ldacc, c1l);
      _mm256_storeu_pd(c + ldacc + 4, c1h);
      _mm256_storeu_pd(c + 2 * ldacc, c2l);
      _mm256_storeu_pd(c + 2 * ldacc + 4, c2h);
      _mm256_storeu_pd(c + 3 * ldacc, c3l);
      _mm256_storeu_pd(c + 3 * ldacc + 4, c3h);
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t j0 = r < rows_full ? n_full : 0;
    if (j0 == n) continue;
    for (std::int64_t q = 0; q < k; ++q) {
      avx2_gemm_row_f64(acc + r * ldacc + j0, b + q * ldb + j0,
                        static_cast<double>(a[r * lda + q]), n - j0);
    }
  }
}

void avx2_gemm_tile_f64(double* acc, std::int64_t ldacc, const float* a,
                        std::int64_t lda, const float* b, std::int64_t ldb,
                        std::int64_t rows, std::int64_t n, std::int64_t k) {
  // One row and one step (a conv tap) is a single row update: skip the tile
  // set-up, which costs as much as the update itself at conv row widths.
  if (rows == 1 && k == 1) {
    avx2_gemm_row_f64(acc, b, static_cast<double>(a[0]), n);
    return;
  }
  avx2_gemm_tiles(acc, ldacc, a, lda, b, ldb, rows, n, k);
}

void avx2_axpy_f32(float* y, const float* x, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  if (i < n) scalar_axpy_f32(y + i, x + i, a, n - i);
}

void avx2_axpy_rows_f32(float* y, const float* x, std::int64_t ldx,
                        const float* a, std::int64_t rows, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    const float* xr = x + i;
    for (std::int64_t r = 0; r < rows; ++r, xr += ldx) {
      const __m256 va = _mm256_set1_ps(a[r]);
      vy = _mm256_add_ps(vy, _mm256_mul_ps(va, _mm256_loadu_ps(xr)));
    }
    _mm256_storeu_ps(y + i, vy);
  }
  if (i < n) scalar_axpy_rows_f32(y + i, x + i, ldx, a, rows, n - i);
}

void avx2_scale_f32(float* y, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  if (i < n) scalar_scale_f32(y + i, a, n - i);
}

void avx2_add_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_add_f32(dst + i, a + i, n - i);
}

void avx2_sub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_sub_f32(dst + i, a + i, n - i);
}

void avx2_rsub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(dst + i)));
  }
  if (i < n) scalar_rsub_f32(dst + i, a + i, n - i);
}

void avx2_mul_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(a + i)));
  }
  if (i < n) scalar_mul_f32(dst + i, a + i, n - i);
}

void avx2_bf16_round_f32(float* y, std::int64_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  const __m256i quiet_bit = _mm256_set1_epi32(0x00400000);
  const __m256i round_base = _mm256_set1_epi32(0x7fff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i hi_mask = _mm256_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16), one);
    const __m256i rounded =
        _mm256_add_epi32(bits, _mm256_add_epi32(round_base, lsb));
    const __m256i quieted = _mm256_or_si256(bits, quiet_bit);
    // abs <= 0x7fffffff on both sides, so signed compare is safe.
    const __m256i is_nan = _mm256_cmpgt_epi32(
        _mm256_and_si256(bits, abs_mask), inf_bits);
    const __m256i selected =
        _mm256_blendv_epi8(rounded, quieted, is_nan);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_and_si256(selected, hi_mask));
  }
  if (i < n) scalar_bf16_round_f32(y + i, n - i);
}

// v = x * w for two complex doubles per vector: with wr = (w.re, w.re),
// wi = (w.im, w.im), swapped = (x.im, x.re), vaddsubpd(x*wr, swapped*wi)
// yields (x.re*w.re - x.im*w.im, x.im*w.re + x.re*w.im).
inline __m256d cmul256(__m256d x, __m256d wr, __m256d wi) {
  const __m256d swapped = _mm256_permute_pd(x, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(swapped, wi));
}

void avx2_fft_butterfly_lanes_f64(double* a0, double* a1, const double* w,
                                  std::int64_t lanes) {
  const __m256d wr = _mm256_set1_pd(w[0]);
  const __m256d wi = _mm256_set1_pd(w[1]);
  std::int64_t l = 0;
  for (; l + 2 <= lanes; l += 2) {
    const __m256d v = cmul256(_mm256_loadu_pd(a1 + 2 * l), wr, wi);
    const __m256d u = _mm256_loadu_pd(a0 + 2 * l);
    _mm256_storeu_pd(a0 + 2 * l, _mm256_add_pd(u, v));
    _mm256_storeu_pd(a1 + 2 * l, _mm256_sub_pd(u, v));
  }
  if (l < lanes) {
    scalar_fft_butterfly_lanes_f64(a0 + 2 * l, a1 + 2 * l, w, lanes - l);
  }
}

// Per-lane select: b where the mask lane is all-ones, else a.
inline __m256 select256(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
}

// fdlibm tanhf (scalar_ref.hpp tanh_ref) on 8 lanes. Every branch of the
// reference runs on every lane and a blend picks each lane's result, so
// each lane sees exactly the reference's float operations.
//
// expm1 only sees tanh's arguments: 2|x| >= 2 for |x| >= 1, else -2|x| in
// (-2, -2^-54]. So the reference's overflow, -1 saturation and k = +1 cases
// never fire; the cases left are |a| < 2^-25, k = 0, k = -1, k <= -2 or
// k > 56, 2 <= k < 23 and 23 <= k <= 56.
inline __m256 avx2_tanh(__m256 x) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i sign_mask =
      _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000u));
  const __m256i one_bits = _mm256_set1_epi32(0x3f800000);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f);

  // Integer compares below are signed; every operand is <= 0x7fffffff
  // except k, which is a signed count.
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(jx, abs_mask);
  const __m256i sign = _mm256_andnot_si256(abs_mask, jx);
  // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t+2); else t = expm1(-2|x|),
  // z = -t/(t+2).
  const __m256i big =
      _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(kTanhOneBits - 1));
  const __m256i two_ax =
      _mm256_castps_si256(_mm256_mul_ps(two, _mm256_castsi256_ps(ix)));
  const __m256 a = _mm256_castsi256_ps(
      _mm256_xor_si256(two_ax, _mm256_andnot_si256(big, sign_mask)));

  // expm1(a): k and the reduced argument xr = a - k*ln2 = hi - lo.
  const __m256 round_half = select256(big, _mm256_set1_ps(-0.5f), half);
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(f32_from_bits(kInvLn2Bits)), a),
      round_half));
  k = _mm256_blendv_epi8(
      k, _mm256_set1_epi32(-1),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(kThreeHalfLn2Bits), two_ax));
  k = _mm256_andnot_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(kHalfLn2Bits + 1), two_ax), k);
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(
      a, _mm256_mul_ps(tk, _mm256_set1_ps(f32_from_bits(kLn2HiBits))));
  const __m256 lo =
      _mm256_mul_ps(tk, _mm256_set1_ps(f32_from_bits(kLn2LoBits)));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 p = _mm256_mul_ps(hxs, _mm256_set1_ps(f32_from_bits(kQ5Bits)));
  p = _mm256_mul_ps(
      hxs, _mm256_add_ps(_mm256_set1_ps(f32_from_bits(kQ4Bits)), p));
  p = _mm256_mul_ps(
      hxs, _mm256_add_ps(_mm256_set1_ps(f32_from_bits(kQ3Bits)), p));
  p = _mm256_mul_ps(
      hxs, _mm256_add_ps(_mm256_set1_ps(f32_from_bits(kQ2Bits)), p));
  p = _mm256_mul_ps(
      hxs, _mm256_add_ps(_mm256_set1_ps(f32_from_bits(kQ1Bits)), p));
  const __m256 r1 = _mm256_add_ps(one, p);
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));
  // k == 0.
  const __m256 r_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  const __m256 e2 = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  // k == -1.
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e2)), half);
  // k <= -2 or k > 56: y = 1 - (e - x); 2 <= k < 23: y = (1 - 2^-k) - (e - x);
  // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1. Then k joins y's exponent, and
  // the first case subtracts 1.
  const __m256i far =
      _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
                      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  const __m256i upper = _mm256_andnot_si256(
      far, _mm256_cmpgt_epi32(k, _mm256_set1_epi32(22)));
  const __m256i t_lower = _mm256_blendv_epi8(
      _mm256_sub_epi32(one_bits,
                       _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)),
      one_bits, far);
  const __m256i t_upper = _mm256_slli_epi32(
      _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23);
  const __m256 y_lower = _mm256_sub_ps(_mm256_castsi256_ps(t_lower),
                                       _mm256_sub_ps(e2, xr));
  const __m256 y_upper = _mm256_add_ps(
      _mm256_sub_ps(xr, _mm256_add_ps(e2, _mm256_castsi256_ps(t_upper))),
      one);
  __m256 y = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(select256(upper, y_lower, y_upper)),
      _mm256_slli_epi32(k, 23)));
  y = select256(far, y, _mm256_sub_ps(y, one));
  __m256 em1 = y;
  em1 = select256(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), em1, r_km1);
  em1 = select256(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), em1, r_k0);
  // |a| < 2^-25: expm1(a) = a.
  em1 = select256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(kExpm1TinyBits), two_ax), em1, a);

  // tanh: one division serves both halves.
  const __m256 num = select256(
      big,
      _mm256_castsi256_ps(
          _mm256_xor_si256(_mm256_castps_si256(em1), sign_mask)),
      two);
  const __m256 q = _mm256_div_ps(num, _mm256_add_ps(em1, two));
  const __m256 z = select256(big, q, _mm256_sub_ps(one, q));
  __m256 r = _mm256_castsi256_ps(_mm256_xor_si256(_mm256_castps_si256(z), sign));
  // |x| >= 22 and +-Inf: +-1. NaN: 1/x +- 1 is x quieted, as is x + x.
  r = select256(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(kTanhSatBits - 1)),
                r, _mm256_castsi256_ps(_mm256_or_si256(one_bits, sign)));
  r = select256(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f800000)), r,
                _mm256_add_ps(x, x));
  // |x| < 2^-55, zeros included: x * (1 + x).
  return select256(_mm256_cmpgt_epi32(_mm256_set1_epi32(kTanhTinyBits), ix),
                   r, _mm256_mul_ps(x, _mm256_add_ps(one, x)));
}

// inner = C * (x + A*x*x*x), as in gelu_ref.
inline __m256 avx2_gelu_inner(__m256 x) {
  const __m256 cube = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluA), x), x), x);
  return _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(x, cube));
}

void avx2_gelu_f32(float* y, const float* x, std::int64_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 th = avx2_tanh(avx2_gelu_inner(vx));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_mul_ps(half, vx),
                                          _mm256_add_ps(one, th)));
  }
  if (i < n) scalar_gelu_f32(y + i, x + i, n - i);
}

void avx2_gelu_grad_f32(float* gx, const float* gy, const float* x,
                        std::int64_t n) {
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 a3 = _mm256_set1_ps(3.0f * kGeluA);
  const __m256 gelu_c = _mm256_set1_ps(kGeluC);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 t = avx2_tanh(avx2_gelu_inner(vx));
    const __m256 sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
    const __m256 dinner = _mm256_mul_ps(
        gelu_c,
        _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(a3, vx), vx)));
    const __m256 grad = _mm256_add_ps(
        _mm256_mul_ps(half, _mm256_add_ps(one, t)),
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, vx), sech2), dinner));
    _mm256_storeu_ps(gx + i, _mm256_mul_ps(_mm256_loadu_ps(gy + i), grad));
  }
  if (i < n) scalar_gelu_grad_f32(gx + i, gy + i, x + i, n - i);
}

}  // namespace

const Ops* avx2_ops() {
  static const Ops table = {
      Isa::kAvx2,
      avx2_gemm_tile_f64,
      avx2_axpy_f32,
      avx2_axpy_rows_f32,
      avx2_scale_f32,
      avx2_add_f32,
      avx2_sub_f32,
      avx2_rsub_f32,
      avx2_mul_f32,
      avx2_bf16_round_f32,
      avx2_fft_butterfly_lanes_f64,
      avx2_gelu_f32,
      avx2_gelu_grad_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_AVX2
