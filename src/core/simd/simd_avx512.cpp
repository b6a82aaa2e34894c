// AVX-512F microkernels (512-bit). Compiled with -mavx512f
// -ffp-contract=off; runtime-gated by __builtin_cpu_supports("avx512f").
//
// Only the F subset is used (no DQ/BW/VL instructions) so the runtime gate
// matches the instruction mix: vaddsubpd has no 512-bit form, so complex
// products sign-flip the even (real) lanes of the second term with an
// integer XOR and add — t1 - t2 and t1 + (-t2) are the same IEEE operation.

#if defined(ORBIT2_SIMD_HAVE_AVX512)

#include <immintrin.h>

#include <cstdint>

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

namespace {

// Row update for the rows and columns the register tiles leave over. Kept
// out of line, like the tile loop below, so the table entry holds no vector
// state and a one-row call reaches this with a plain jump.
[[gnu::noinline]] void avx512_gemm_row_f64(double* acc, const float* b,
                                           double a, std::int64_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d vb = _mm512_cvtps_pd(_mm256_loadu_ps(b + j));
    const __m512d vacc = _mm512_loadu_pd(acc + j);
    _mm512_storeu_pd(acc + j, _mm512_add_pd(vacc, _mm512_mul_pd(va, vb)));
  }
  if (j < n) scalar_gemm_row_f64(acc + j, b + j, a, n - j);
}

// A kMR x kNR block of acc lives in 8 zmm registers for the whole q loop:
// loaded once, one rounded multiply and one rounded add per q, stored once.
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 16;

// The register tiles, then row updates for what they leave over: the
// columns past the last whole tile in tile rows, and all of each leftover
// row. Out of line: inlined, its register set-up would run on every call.
[[gnu::noinline]] void avx512_gemm_tiles(double* acc, std::int64_t ldacc,
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
      __m512d c0l = _mm512_loadu_pd(c);
      __m512d c0h = _mm512_loadu_pd(c + 8);
      __m512d c1l = _mm512_loadu_pd(c + ldacc);
      __m512d c1h = _mm512_loadu_pd(c + ldacc + 8);
      __m512d c2l = _mm512_loadu_pd(c + 2 * ldacc);
      __m512d c2h = _mm512_loadu_pd(c + 2 * ldacc + 8);
      __m512d c3l = _mm512_loadu_pd(c + 3 * ldacc);
      __m512d c3h = _mm512_loadu_pd(c + 3 * ldacc + 8);
      const float* bq = b + j;
      for (std::int64_t q = 0; q < k; ++q, bq += ldb) {
        const __m512d bl = _mm512_cvtps_pd(_mm256_loadu_ps(bq));
        const __m512d bh = _mm512_cvtps_pd(_mm256_loadu_ps(bq + 8));
        const __m512d a0 = _mm512_set1_pd(static_cast<double>(ar[q]));
        c0l = _mm512_add_pd(c0l, _mm512_mul_pd(a0, bl));
        c0h = _mm512_add_pd(c0h, _mm512_mul_pd(a0, bh));
        const __m512d a1 = _mm512_set1_pd(static_cast<double>(ar[lda + q]));
        c1l = _mm512_add_pd(c1l, _mm512_mul_pd(a1, bl));
        c1h = _mm512_add_pd(c1h, _mm512_mul_pd(a1, bh));
        const __m512d a2 =
            _mm512_set1_pd(static_cast<double>(ar[2 * lda + q]));
        c2l = _mm512_add_pd(c2l, _mm512_mul_pd(a2, bl));
        c2h = _mm512_add_pd(c2h, _mm512_mul_pd(a2, bh));
        const __m512d a3 =
            _mm512_set1_pd(static_cast<double>(ar[3 * lda + q]));
        c3l = _mm512_add_pd(c3l, _mm512_mul_pd(a3, bl));
        c3h = _mm512_add_pd(c3h, _mm512_mul_pd(a3, bh));
      }
      _mm512_storeu_pd(c, c0l);
      _mm512_storeu_pd(c + 8, c0h);
      _mm512_storeu_pd(c + ldacc, c1l);
      _mm512_storeu_pd(c + ldacc + 8, c1h);
      _mm512_storeu_pd(c + 2 * ldacc, c2l);
      _mm512_storeu_pd(c + 2 * ldacc + 8, c2h);
      _mm512_storeu_pd(c + 3 * ldacc, c3l);
      _mm512_storeu_pd(c + 3 * ldacc + 8, c3h);
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t j0 = r < rows_full ? n_full : 0;
    if (j0 == n) continue;
    for (std::int64_t q = 0; q < k; ++q) {
      avx512_gemm_row_f64(acc + r * ldacc + j0, b + q * ldb + j0,
                          static_cast<double>(a[r * lda + q]), n - j0);
    }
  }
}

void avx512_gemm_tile_f64(double* acc, std::int64_t ldacc, const float* a,
                          std::int64_t lda, const float* b, std::int64_t ldb,
                          std::int64_t rows, std::int64_t n, std::int64_t k) {
  // One row and one step (a conv tap) is a single row update: skip the tile
  // set-up, which costs as much as the update itself at conv row widths.
  if (rows == 1 && k == 1) {
    avx512_gemm_row_f64(acc, b, static_cast<double>(a[0]), n);
    return;
  }
  avx512_gemm_tiles(acc, ldacc, a, lda, b, ldb, rows, n, k);
}

void avx512_axpy_f32(float* y, const float* x, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_add_ps(vy, _mm512_mul_ps(va, vx)));
  }
  if (i < n) scalar_axpy_f32(y + i, x + i, a, n - i);
}

void avx512_axpy_rows_f32(float* y, const float* x, std::int64_t ldx,
                          const float* a, std::int64_t rows, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vy = _mm512_loadu_ps(y + i);
    const float* xr = x + i;
    for (std::int64_t r = 0; r < rows; ++r, xr += ldx) {
      const __m512 va = _mm512_set1_ps(a[r]);
      vy = _mm512_add_ps(vy, _mm512_mul_ps(va, _mm512_loadu_ps(xr)));
    }
    _mm512_storeu_ps(y + i, vy);
  }
  if (i < n) scalar_axpy_rows_f32(y + i, x + i, ldx, a, rows, n - i);
}

void avx512_scale_f32(float* y, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), va));
  }
  if (i < n) scalar_scale_f32(y + i, a, n - i);
}

void avx512_add_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_add_f32(dst + i, a + i, n - i);
}

void avx512_sub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_sub_f32(dst + i, a + i, n - i);
}

void avx512_rsub_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_sub_ps(_mm512_loadu_ps(a + i),
                               _mm512_loadu_ps(dst + i)));
  }
  if (i < n) scalar_rsub_f32(dst + i, a + i, n - i);
}

void avx512_mul_f32(float* dst, const float* a, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        dst + i, _mm512_mul_ps(_mm512_loadu_ps(dst + i),
                               _mm512_loadu_ps(a + i)));
  }
  if (i < n) scalar_mul_f32(dst + i, a + i, n - i);
}

void avx512_bf16_round_f32(float* y, std::int64_t n) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i inf_bits = _mm512_set1_epi32(0x7f800000);
  const __m512i quiet_bit = _mm512_set1_epi32(0x00400000);
  const __m512i round_base = _mm512_set1_epi32(0x7fff);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i hi_mask = _mm512_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits =
        _mm512_loadu_si512(reinterpret_cast<const void*>(y + i));
    const __m512i lsb = _mm512_and_si512(_mm512_srli_epi32(bits, 16), one);
    const __m512i rounded =
        _mm512_add_epi32(bits, _mm512_add_epi32(round_base, lsb));
    // abs <= 0x7fffffff on both sides, so signed compare is safe.
    const __mmask16 is_nan = _mm512_cmpgt_epi32_mask(
        _mm512_and_si512(bits, abs_mask), inf_bits);
    const __m512i selected = _mm512_mask_or_epi32(rounded, is_nan, bits,
                                                  quiet_bit);
    _mm512_storeu_si512(reinterpret_cast<void*>(y + i),
                        _mm512_and_si512(selected, hi_mask));
  }
  if (i < n) scalar_bf16_round_f32(y + i, n - i);
}

// v = x * w for four complex doubles per vector, with wr and wi holding the
// twiddle's real and imaginary part in every lane. AVX-512 has no vaddsubpd:
// flip the sign of the even (real) lanes of swapped*wi with an integer XOR,
// then one add gives (x.re*w.re - x.im*w.im, x.im*w.re + x.re*w.im) per
// complex.
inline __m512d cmul512(__m512d x, __m512d wr, __m512d wi) {
  const __m512i even_sign = _mm512_set_epi64(
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull),
      0, static_cast<long long>(0x8000000000000000ull));
  const __m512d swapped = _mm512_permute_pd(x, 0x55);
  const __m512d t1 = _mm512_mul_pd(x, wr);
  const __m512d t2 = _mm512_mul_pd(swapped, wi);
  const __m512d t2_flipped = _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(t2), even_sign));
  return _mm512_add_pd(t1, t2_flipped);
}

void avx512_fft_butterfly_lanes_f64(double* a0, double* a1, const double* w,
                                    std::int64_t lanes) {
  const __m512d wr = _mm512_set1_pd(w[0]);
  const __m512d wi = _mm512_set1_pd(w[1]);
  std::int64_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    const __m512d v = cmul512(_mm512_loadu_pd(a1 + 2 * l), wr, wi);
    const __m512d u = _mm512_loadu_pd(a0 + 2 * l);
    _mm512_storeu_pd(a0 + 2 * l, _mm512_add_pd(u, v));
    _mm512_storeu_pd(a1 + 2 * l, _mm512_sub_pd(u, v));
  }
  if (l < lanes) {
    scalar_fft_butterfly_lanes_f64(a0 + 2 * l, a1 + 2 * l, w, lanes - l);
  }
}

// fdlibm tanhf (scalar_ref.hpp tanh_ref) on 16 lanes. Every branch of the
// reference runs on every lane and a mask blend picks each lane's result,
// so each lane sees exactly the reference's float operations.
//
// expm1 only sees tanh's arguments: 2|x| >= 2 for |x| >= 1, else -2|x| in
// (-2, -2^-54]. So the reference's overflow, -1 saturation and k = +1 cases
// never fire; the cases left are |a| < 2^-25, k = 0, k = -1, k <= -2 or
// k > 56, 2 <= k < 23 and 23 <= k <= 56.
inline __m512 avx512_tanh(__m512 x) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i sign_mask =
      _mm512_set1_epi32(static_cast<std::int32_t>(0x80000000u));
  const __m512i one_bits = _mm512_set1_epi32(0x3f800000);
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 half = _mm512_set1_ps(0.5f);

  const __m512i jx = _mm512_castps_si512(x);
  const __m512i ix = _mm512_and_si512(jx, abs_mask);
  const __m512i sign = _mm512_andnot_si512(abs_mask, jx);
  // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t+2); else t = expm1(-2|x|),
  // z = -t/(t+2).
  const __mmask16 big =
      _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(kTanhOneBits));
  const __m512i two_ax =
      _mm512_castps_si512(_mm512_mul_ps(two, _mm512_castsi512_ps(ix)));
  const __m512 a = _mm512_castsi512_ps(
      _mm512_mask_xor_epi32(two_ax, _mm512_knot(big), two_ax, sign_mask));

  // expm1(a): k and the reduced argument xr = a - k*ln2 = hi - lo.
  const __m512 round_half =
      _mm512_mask_blend_ps(big, _mm512_set1_ps(-0.5f), half);
  __m512i k = _mm512_cvttps_epi32(_mm512_add_ps(
      _mm512_mul_ps(_mm512_set1_ps(f32_from_bits(kInvLn2Bits)), a),
      round_half));
  k = _mm512_mask_mov_epi32(
      k, _mm512_cmplt_epi32_mask(two_ax, _mm512_set1_epi32(kThreeHalfLn2Bits)),
      _mm512_set1_epi32(-1));
  k = _mm512_mask_mov_epi32(
      k, _mm512_cmple_epi32_mask(two_ax, _mm512_set1_epi32(kHalfLn2Bits)),
      _mm512_setzero_si512());
  const __m512 tk = _mm512_cvtepi32_ps(k);
  const __m512 hi = _mm512_sub_ps(
      a, _mm512_mul_ps(tk, _mm512_set1_ps(f32_from_bits(kLn2HiBits))));
  const __m512 lo =
      _mm512_mul_ps(tk, _mm512_set1_ps(f32_from_bits(kLn2LoBits)));
  const __m512 xr = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

  const __m512 hfx = _mm512_mul_ps(half, xr);
  const __m512 hxs = _mm512_mul_ps(xr, hfx);
  __m512 p = _mm512_mul_ps(hxs, _mm512_set1_ps(f32_from_bits(kQ5Bits)));
  p = _mm512_mul_ps(
      hxs, _mm512_add_ps(_mm512_set1_ps(f32_from_bits(kQ4Bits)), p));
  p = _mm512_mul_ps(
      hxs, _mm512_add_ps(_mm512_set1_ps(f32_from_bits(kQ3Bits)), p));
  p = _mm512_mul_ps(
      hxs, _mm512_add_ps(_mm512_set1_ps(f32_from_bits(kQ2Bits)), p));
  p = _mm512_mul_ps(
      hxs, _mm512_add_ps(_mm512_set1_ps(f32_from_bits(kQ1Bits)), p));
  const __m512 r1 = _mm512_add_ps(one, p);
  const __m512 t = _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
  const __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                       _mm512_mul_ps(xr, t))));
  // k == 0.
  const __m512 r_k0 =
      _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
  const __m512 e2 = _mm512_sub_ps(
      _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c), hxs);
  // k == -1.
  const __m512 r_km1 =
      _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(xr, e2)), half);
  // k <= -2 or k > 56: y = 1 - (e - x); 2 <= k < 23: y = (1 - 2^-k) - (e - x);
  // 23 <= k <= 56: y = (x - (e + 2^-k)) + 1. Then k joins y's exponent, and
  // the first case subtracts 1.
  const __mmask16 far =
      _mm512_kor(_mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(-1)),
                 _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56)));
  const __mmask16 upper = _mm512_kandn(
      far, _mm512_cmpge_epi32_mask(k, _mm512_set1_epi32(23)));
  const __m512i t_lower = _mm512_mask_mov_epi32(
      _mm512_sub_epi32(one_bits,
                       _mm512_srlv_epi32(_mm512_set1_epi32(0x1000000), k)),
      far, one_bits);
  const __m512i t_upper = _mm512_slli_epi32(
      _mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23);
  const __m512 y_lower = _mm512_sub_ps(_mm512_castsi512_ps(t_lower),
                                       _mm512_sub_ps(e2, xr));
  const __m512 y_upper = _mm512_add_ps(
      _mm512_sub_ps(xr, _mm512_add_ps(e2, _mm512_castsi512_ps(t_upper))),
      one);
  __m512 y = _mm512_castsi512_ps(_mm512_add_epi32(
      _mm512_castps_si512(_mm512_mask_blend_ps(upper, y_lower, y_upper)),
      _mm512_slli_epi32(k, 23)));
  y = _mm512_mask_sub_ps(y, far, y, one);
  __m512 em1 = y;
  em1 = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), em1, r_km1);
  em1 = _mm512_mask_blend_ps(
      _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), em1, r_k0);
  // |a| < 2^-25: expm1(a) = a.
  em1 = _mm512_mask_blend_ps(
      _mm512_cmplt_epi32_mask(two_ax, _mm512_set1_epi32(kExpm1TinyBits)), em1,
      a);

  // tanh: one division serves both halves.
  const __m512 num = _mm512_mask_blend_ps(
      big,
      _mm512_castsi512_ps(
          _mm512_xor_si512(_mm512_castps_si512(em1), sign_mask)),
      two);
  const __m512 q = _mm512_div_ps(num, _mm512_add_ps(em1, two));
  const __m512 z = _mm512_mask_sub_ps(q, big, one, q);
  __m512 r = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(z), sign));
  // |x| >= 22 and +-Inf: +-1. NaN: 1/x +- 1 is x quieted, as is x + x.
  r = _mm512_mask_blend_ps(
      _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(kTanhSatBits)), r,
      _mm512_castsi512_ps(_mm512_or_si512(one_bits, sign)));
  r = _mm512_mask_blend_ps(
      _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(0x7f800000)), r,
      _mm512_add_ps(x, x));
  // |x| < 2^-55, zeros included: x * (1 + x).
  return _mm512_mask_blend_ps(
      _mm512_cmplt_epi32_mask(ix, _mm512_set1_epi32(kTanhTinyBits)), r,
      _mm512_mul_ps(x, _mm512_add_ps(one, x)));
}

// inner = C * (x + A*x*x*x), as in gelu_ref.
inline __m512 avx512_gelu_inner(__m512 x) {
  const __m512 cube = _mm512_mul_ps(
      _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluA), x), x), x);
  return _mm512_mul_ps(_mm512_set1_ps(kGeluC), _mm512_add_ps(x, cube));
}

void avx512_gelu_f32(float* y, const float* x, std::int64_t n) {
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 one = _mm512_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 th = avx512_tanh(avx512_gelu_inner(vx));
    _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_mul_ps(half, vx),
                                          _mm512_add_ps(one, th)));
  }
  if (i < n) scalar_gelu_f32(y + i, x + i, n - i);
}

void avx512_gelu_grad_f32(float* gx, const float* gy, const float* x,
                          std::int64_t n) {
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 a3 = _mm512_set1_ps(3.0f * kGeluA);
  const __m512 gelu_c = _mm512_set1_ps(kGeluC);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 t = avx512_tanh(avx512_gelu_inner(vx));
    const __m512 sech2 = _mm512_sub_ps(one, _mm512_mul_ps(t, t));
    const __m512 dinner = _mm512_mul_ps(
        gelu_c,
        _mm512_add_ps(one, _mm512_mul_ps(_mm512_mul_ps(a3, vx), vx)));
    const __m512 grad = _mm512_add_ps(
        _mm512_mul_ps(half, _mm512_add_ps(one, t)),
        _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(half, vx), sech2), dinner));
    _mm512_storeu_ps(gx + i, _mm512_mul_ps(_mm512_loadu_ps(gy + i), grad));
  }
  if (i < n) scalar_gelu_grad_f32(gx + i, gy + i, x + i, n - i);
}

}  // namespace

const Ops* avx512_ops() {
  static const Ops table = {
      Isa::kAvx512,
      avx512_gemm_tile_f64,
      avx512_axpy_f32,
      avx512_axpy_rows_f32,
      avx512_scale_f32,
      avx512_add_f32,
      avx512_sub_f32,
      avx512_rsub_f32,
      avx512_mul_f32,
      avx512_bf16_round_f32,
      avx512_fft_butterfly_lanes_f64,
      avx512_gelu_f32,
      avx512_gelu_grad_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail

#endif  // ORBIT2_SIMD_HAVE_AVX512
