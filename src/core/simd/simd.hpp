#pragma once
// SIMD microkernel tier with runtime ISA dispatch.
//
// The kernel substrate (core/kernels.hpp) made every hot path thread-parallel
// and bit-stable, but left all inner arithmetic scalar. This layer supplies
// the vectorized inner loops: a small set of primitive microkernels (a
// register-tiled GEMM tile, lane-batched radix-2 FFT butterflies, contiguous
// elementwise stages, row rescales, bf16 convert-and-round, GELU forward and
// backward, exp) behind one function-pointer table selected once at startup from
// the host ISA (AVX-512 > AVX2 > NEON > scalar) and overridable with
// `ORBIT2_SIMD=scalar|avx2|avx512|neon` for testing.
//
// Determinism contract (the reason these kernels are hand-written instead of
// relying on compiler auto-vectorization):
//
//   * Every primitive is element-parallel with FIXED per-element arithmetic:
//     each output element sees exactly the operations, operand order, and
//     single-rounding steps of the scalar reference, so scalar and every
//     vector ISA produce identical bytes. Vector remainders run the scalar
//     reference per element.
//   * No implicit fused multiply-add: `y += a * x` is one rounded multiply
//     then one rounded add, matching the baseline scalar build (the simd TUs
//     compile with -ffp-contract=off so the compiler cannot contract them
//     either). The only FMAs are explicit: exp's five, std::fma in the
//     reference and an FMA intrinsic in each vector body, both correctly
//     rounded on every host.
//   * Accumulating primitives keep each output element's sum in its own
//     register lane in the reference's operand order (gemm_tile_f64 walks k
//     ascending per element), so no horizontal reduction is ever needed.
//     A future primitive that must reduce across elements has to fix a
//     LOGICAL lane count independent of the vector width (element i into
//     lane i % L, lanes combined in ascending order) and implement exactly
//     that order in the scalar reference, so every ISA matches bit for bit.
//   * Transcendentals are ported, not called: GELU's tanh is fdlibm's tanhf
//     (scalar_ref.hpp tanh_ref), float operations only, bit-identical to
//     glibc 2.36's tanhf; exp is glibc 2.36's expf as its FMA build runs it
//     (scalar_ref.hpp exp_ref), bit-identical to libm on FMA hosts. Vector
//     backends compute every branch on every lane and blend, so each lane
//     sees the reference's operations, and results do not depend on the
//     host's libm.
//   * Complex products (FFT butterflies) use the naive formula with pinned
//     operand order:
//     re = xr*wr - xi*wi, im = xi*wr + xr*wi (each product rounded once).
//     For finite inputs this is bit-identical to the pre-SIMD
//     std::complex<double> arithmetic; NaN/Inf recovery semantics of C99
//     complex multiplication are intentionally not replicated.
//
// Thread safety: the active table resolves once (env + cpuid) on first use.
// set_isa() is a test/bench hook like kernels::set_max_threads — it must not
// be called while kernels are executing.

#include <cstdint>
#include <vector>

namespace orbit2::simd {

enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Human-readable lowercase name, matching the ORBIT2_SIMD env values.
const char* isa_name(Isa isa);

/// Parses an ORBIT2_SIMD value ("scalar"|"avx2"|"avx512"|"neon", full-string
/// match). Returns false on anything else.
bool parse_isa_name(const char* text, Isa* out);

/// The primitive microkernel table. One table per ISA; all tables are
/// bit-identical in output (see the determinism contract above) and differ
/// only in speed. Pointers are never null.
struct Ops {
  Isa isa;

  /// Register-tiled GEMM tile over double accumulators:
  /// acc[r * ldacc + j] += double(a[r * lda + q]) * double(b[q * ldb + j])
  /// for r in [0, rows), j in [0, n), with q = 0, 1, ..., k - 1 in that order.
  /// Each element sees exactly the operations of k separate row updates:
  /// an ascending-q double sum, one rounded multiply then one rounded add
  /// per step (no FMA). Vector backends hold an MR x NR block of `acc` in
  /// registers across the whole q loop; ragged rows and columns run a row
  /// update with the same per-element arithmetic.
  void (*gemm_tile_f64)(double* acc, std::int64_t ldacc, const float* a,
                        std::int64_t lda, const float* b, std::int64_t ldb,
                        std::int64_t rows, std::int64_t n, std::int64_t k);

  /// y[i] += a * x[i] (rounded multiply then rounded add, float).
  void (*axpy_f32)(float* y, const float* x, float a, std::int64_t n);

  /// `rows` axpy_f32 calls fused into one pass over y:
  /// y[i] += a[r] * x[r * ldx + i] for r = 0, 1, ..., rows - 1 in that order,
  /// for each i in [0, n). Each element sees exactly the operations of the
  /// unfused calls; y stays in registers across the rows.
  void (*axpy_rows_f32)(float* y, const float* x, std::int64_t ldx,
                        const float* a, std::int64_t rows, std::int64_t n);

  /// y[i] *= a.
  void (*scale_f32)(float* y, float a, std::int64_t n);

  /// dst[i] = dst[i] + a[i].
  void (*add_f32)(float* dst, const float* a, std::int64_t n);

  /// dst[i] = dst[i] - a[i].
  void (*sub_f32)(float* dst, const float* a, std::int64_t n);

  /// dst[i] = a[i] - dst[i].
  void (*rsub_f32)(float* dst, const float* a, std::int64_t n);

  /// dst[i] = dst[i] * a[i].
  void (*mul_f32)(float* dst, const float* a, std::int64_t n);

  /// dst[i] = std::max(dst[i], a[i]), that is (dst[i] < a[i]) ? a[i] : dst[i]:
  /// a NaN in a[i] leaves dst[i], and of two zeros dst[i] stays.
  void (*max_f32)(float* dst, const float* a, std::int64_t n);

  /// In-place bf16 storage rounding: y[i] = bf16_round(y[i]).
  /// Pure integer bit manipulation, bit-exact for every input including NaN.
  void (*bf16_round_f32)(float* y, std::int64_t n);

  /// One radix-2 butterfly applied to `lanes` independent transforms at
  /// once, over interleaved re/im doubles:
  ///   u = a0[l]; v = a1[l] * w; a0[l] = u + v; a1[l] = u - v
  /// where a0/a1 point at 2*lanes doubles (re, im, re, im, ...) and w at the
  /// one twiddle (re, im) every lane shares.
  void (*fft_butterfly_lanes_f64)(double* a0, double* a1, const double* w,
                                  std::int64_t lanes);

  /// Tanh-approximation GELU: y[i] = gelu(x[i]), with tanh computed as
  /// fdlibm's tanhf (scalar_ref.hpp gelu_ref). `y` may equal `x`.
  void (*gelu_f32)(float* y, const float* x, std::int64_t n);

  /// GELU backward: gx[i] = gy[i] * gelu'(x[i]) (scalar_ref.hpp
  /// gelu_grad_ref).
  void (*gelu_grad_f32)(float* gx, const float* gy, const float* x,
                        std::int64_t n);

  /// y[i] = exp(x[i]), computed as glibc's expf (scalar_ref.hpp exp_ref).
  /// `y` may equal `x`.
  void (*exp_f32)(float* y, const float* x, std::int64_t n);
};

/// The active table. First call resolves the ISA (ORBIT2_SIMD env override,
/// else best supported) and logs the choice at debug level.
const Ops& ops();

/// ISA of the active table.
Isa active_isa();

/// True when the host supports `isa` (kScalar always).
bool isa_supported(Isa isa);

/// Supported ISAs in ascending preference order, starting with kScalar.
std::vector<Isa> supported_isas();

/// Overrides the active table; `isa` must be supported on this host.
/// Test/bench hook — must not be called while kernels are executing.
void set_isa(Isa isa);

}  // namespace orbit2::simd
