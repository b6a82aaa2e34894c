#pragma once
// Unified parallel kernel execution layer.
//
// Every tensor/attention/autograd hot path dispatches through this one
// substrate instead of hand-rolled per-file loops. It owns the process-wide
// worker pool and provides:
//
//   * parallel_for / parallel_reduce with grain-size-aware, *deterministic*
//     chunking: chunk boundaries are a pure function of (count, grain) and
//     never depend on the thread count, so serial and parallel execution are
//     bit-identical and checkpoint-resume reproducibility survives.
//   * A cache-blocked GEMM family (NN / NT / TN / batched). NT and TN
//     transpose their T operand into a per-thread buffer once; every variant
//     runs one NN kernel that reads A and B in place (no panel packing) and
//     feeds simd::Ops::gemm_tile_f64 one K block of a row panel at a time.
//     Each output element accumulates in double precision in ascending-k
//     order, so the variants agree bitwise with each other and with any
//     thread count.
//   * Nested-call composition: a kernel invoked from inside another kernel's
//     worker chunk runs inline and serial, so outer parallelism (TILES tiles,
//     sharded devices) composes with inner parallelism (GEMM panels) instead
//     of oversubscribing the machine.
//
// Thread count resolution order: set_max_threads(n) > ORBIT2_NUM_THREADS env
// > std::thread::hardware_concurrency().

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace orbit2::kernels {

/// Non-owning callable view, the dispatch currency of this layer.
///
/// `std::function` heap-allocates when a lambda's captures outgrow its small
/// buffer, which would put an allocation on every kernel dispatch — including
/// the serial path the zero-allocation inference replay relies on. FnRef
/// stores only {object pointer, trampoline pointer}; the callee must outlive
/// the call, which parallel_for/parallel_reduce guarantee by blocking until
/// every chunk has finished.
template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, FnRef>, int> = 0>
  FnRef(F&& f)  // NOLINT(google-explicit-constructor): adapter by design
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Number of threads kernel dispatch will use (>= 1).
std::size_t max_threads();

/// Overrides the kernel thread count; 0 restores the default resolution
/// (ORBIT2_NUM_THREADS env, else hardware concurrency). Tears down the
/// process-wide workers, which the next parallel call rebuilds at the new
/// size, so it must not be called while kernels are executing — intended
/// for tests and benchmark sweeps.
void set_max_threads(std::size_t n);

/// True while the calling thread is executing a kernel chunk; nested kernel
/// calls observe this and run inline.
bool in_parallel_region();

/// Runs body(begin, end) over [0, count) in chunks of `grain` indices.
/// Chunk boundaries are [0,g), [g,2g), ... regardless of thread count; the
/// final chunk is short. Serial when nested, when only one chunk exists, or
/// when only one thread is configured. Exceptions from chunks are rethrown
/// on the calling thread after all chunks finish.
void parallel_for(std::int64_t count, std::int64_t grain,
                  FnRef<void(std::int64_t, std::int64_t)> body);

/// Deterministic sum reduction: chunk(begin, end) returns the partial for
/// one grain-sized chunk; partials are combined in ascending chunk order.
/// The serial path uses the same chunk boundaries and combine order, so the
/// result is bit-identical for any thread count.
double parallel_reduce(std::int64_t count, std::int64_t grain,
                       FnRef<double(std::int64_t, std::int64_t)> chunk);

/// Picks a grain so one chunk carries roughly `target_work` units given
/// `work_per_item` units per index (both clamped to >= 1).
std::int64_t grain_for(std::int64_t work_per_item,
                       std::int64_t target_work = 1 << 15);

// ---- GEMM micro-kernel family ---------------------------------------------

enum class Trans { kN, kT };

/// C (m x n, row-major) = [accumulate ? C : 0] + op(A) * op(B) where
/// op(X) is X or X^T per the Trans flags. A is m x k after op, B is k x n
/// after op; storage is dense row-major of the *untransposed* operands.
///
/// Accumulation policy (applies to every variant, documented contract):
/// each output element is accumulated in double precision over k in
/// ascending order, then rounded to float once (and added to C in float
/// when `accumulate`). There are no data-dependent skips (a zero operand
/// entry still participates), so NaN/Inf propagate correctly and NN/NT/TN
/// agree bitwise on transposed views of the same operands. Work is split
/// over fixed-size output panels only, so results are independent of the
/// thread count.
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate = false);

/// Batched gemm over `batch` independent problems laid out contiguously:
/// a + bi*m*k, b + bi*k*n, c + bi*m*n. Same policy as gemm().
void gemm_batched(Trans ta, Trans tb, std::int64_t batch, std::int64_t m,
                  std::int64_t n, std::int64_t k, const float* a,
                  const float* b, float* c, bool accumulate = false);

}  // namespace orbit2::kernels
