#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/obs.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::kernels {

namespace {

/// The process-wide worker set behind run_chunks. Submit-only: tasks run
/// FIFO and nothing here joins them — each run_chunks call tracks its own
/// helpers, so one caller's failure never reaches another caller.
class Workers {
 public:
  explicit Workers(std::size_t count) {
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    ready_.notify_one();
  }

 private:
  void loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      // run_chunks' tasks capture chunk exceptions themselves; anything
      // else must not escape into std::terminate on a worker thread.
      try {
        task();
      } catch (...) {
      }
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

// Pool configuration. `configured_threads` == 0 means "resolve from the
// environment"; the workers are rebuilt lazily after set_max_threads.
std::mutex& pool_mutex() {
  static std::mutex m;
  return m;
}
std::unique_ptr<Workers>& pool_slot() {
  static std::unique_ptr<Workers> pool;
  return pool;
}
std::size_t& configured_threads() {
  static std::size_t n = 0;
  return n;
}

std::size_t resolve_threads_locked() {
  if (configured_threads() != 0) return configured_threads();
  const std::size_t fallback =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (const char* env = std::getenv("ORBIT2_NUM_THREADS")) {
    // Full-string parse: trailing garbage ("4abc") means the value is junk,
    // not 4 — warn and fall back instead of silently honoring a prefix.
    // Overflowing values saturate in strtoll and land in the clamp below.
    static bool warned_junk = false;
    static bool warned_clamp = false;
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || parsed <= 0) {
      if (!warned_junk) {
        warned_junk = true;
        ORBIT2_LOG_WARN("ORBIT2_NUM_THREADS=\""
                        << env << "\" is not a positive integer; using "
                        << fallback << " thread(s)");
      }
      return fallback;
    }
    // A pool far beyond the hardware only adds contention; clamp to a sane
    // oversubscription ceiling.
    const std::size_t max_allowed = 4 * fallback;
    if (static_cast<unsigned long long>(parsed) > max_allowed) {
      if (!warned_clamp) {
        warned_clamp = true;
        ORBIT2_LOG_WARN("ORBIT2_NUM_THREADS=" << env << " exceeds 4x hardware "
                                              << "concurrency; clamping to "
                                              << max_allowed);
      }
      return max_allowed;
    }
    return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

// Set while the current thread is executing a kernel chunk; nested kernel
// invocations observe it and run inline (composition instead of
// oversubscription, and no wait-for-own-pool deadlocks).
thread_local bool tl_in_parallel_region = false;

struct RegionScope {
  bool saved;
  RegionScope() : saved(tl_in_parallel_region) { tl_in_parallel_region = true; }
  ~RegionScope() { tl_in_parallel_region = saved; }
};

/// Executes run(chunk) for chunk in [0, num_chunks). Chunks are pulled from
/// a shared counter by the calling thread plus up to (pool workers) helper
/// tasks, so which thread runs a chunk is dynamic — callers must make chunk
/// *results* independent of assignment (disjoint writes or indexed partial
/// slots). Blocks until every chunk and helper has finished; rethrows the
/// first chunk exception.
void run_chunks(std::int64_t num_chunks, FnRef<void(std::int64_t)> run) {
  if (num_chunks <= 0) return;
  // Inline serial execution. The region flag is left as-is: a one-chunk
  // outer loop must not stop nested kernels from going parallel. The two
  // lock-free tests come first so nested calls never touch the pool mutex.
  auto run_inline = [&] {
    for (std::int64_t chunk = 0; chunk < num_chunks; ++chunk) run(chunk);
  };
  if (num_chunks == 1 || tl_in_parallel_region) return run_inline();
  std::size_t threads = 0;
  Workers* workers = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_mutex());
    threads = resolve_threads_locked();
    if (threads > 1) {
      if (!pool_slot()) pool_slot() = std::make_unique<Workers>(threads);
      workers = pool_slot().get();
    }
  }
  if (workers == nullptr) return run_inline();

  struct Shared {
    std::atomic<std::int64_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::int64_t chunks_done = 0;
    std::size_t helpers_finished = 0;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();

  auto drain = [shared, num_chunks, run] {
    RegionScope scope;
    for (;;) {
      const std::int64_t chunk =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      try {
        run(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        if (!shared->first_error) shared->first_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (++shared->chunks_done == num_chunks) shared->done_cv.notify_all();
    }
  };

  const std::size_t helpers = std::min<std::size_t>(
      threads - 1, static_cast<std::size_t>(num_chunks - 1));
  for (std::size_t h = 0; h < helpers; ++h) {
    workers->submit([shared, drain] {
      drain();
      std::lock_guard<std::mutex> lock(shared->mutex);
      ++shared->helpers_finished;
      shared->done_cv.notify_all();
    });
  }
  drain();  // the caller participates instead of blocking idle

  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->done_cv.wait(lock, [&] {
    return shared->chunks_done == num_chunks &&
           shared->helpers_finished == helpers;
  });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

std::int64_t num_chunks_for(std::int64_t count, std::int64_t grain) {
  ORBIT2_REQUIRE(grain >= 1, "kernel grain must be >= 1, have " << grain);
  // Not the usual (count + grain - 1) / grain: that sum overflows for
  // count near INT64_MAX.
  return count / grain + (count % grain != 0 ? 1 : 0);
}

// Chunk [begin, end) for `chunk` of num_chunks_for(count, grain). begin
// itself cannot overflow (chunk * grain < count + grain and the last chunk
// starts below count), but begin + grain can — bound the span by what is
// left instead.
std::int64_t chunk_begin(std::int64_t chunk, std::int64_t grain) {
  return chunk * grain;
}
std::int64_t chunk_end(std::int64_t begin, std::int64_t count,
                       std::int64_t grain) {
  return begin + std::min(grain, count - begin);
}

}  // namespace

std::size_t max_threads() {
  std::lock_guard<std::mutex> lock(pool_mutex());
  return resolve_threads_locked();
}

void set_max_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(pool_mutex());
  configured_threads() = n;
  pool_slot().reset();  // rebuilt lazily at the new size
}

bool in_parallel_region() { return tl_in_parallel_region; }

void parallel_for(std::int64_t count, std::int64_t grain,
                  FnRef<void(std::int64_t, std::int64_t)> body) {
  if (count <= 0) return;
  // One span per dispatch, on the dispatching thread (not per chunk): the
  // span stream a thread observes is thread-count-invariant.
  ORBIT2_OBS_SPAN_ARG("parallel_for", "kernels", "count", count);
  ORBIT2_OBS_COUNT("kernels.parallel_for_calls", 1);
  const std::int64_t chunks = num_chunks_for(count, grain);
  run_chunks(chunks, [count, grain, body](std::int64_t chunk) {
    const std::int64_t begin = chunk_begin(chunk, grain);
    body(begin, chunk_end(begin, count, grain));
  });
}

double parallel_reduce(std::int64_t count, std::int64_t grain,
                       FnRef<double(std::int64_t, std::int64_t)> chunk_fn) {
  if (count <= 0) return 0.0;
  ORBIT2_OBS_SPAN_ARG("parallel_reduce", "kernels", "count", count);
  ORBIT2_OBS_COUNT("kernels.parallel_reduce_calls", 1);
  const std::int64_t chunks = num_chunks_for(count, grain);
  // Partials land in per-chunk slots and are combined in ascending chunk
  // order; the serial path runs the identical chunking, so the float/double
  // addition order — and therefore the result — is thread-count-invariant.
  std::vector<double> partials(static_cast<std::size_t>(chunks), 0.0);
  run_chunks(chunks, [count, grain, chunk_fn, &partials](std::int64_t chunk) {
    const std::int64_t begin = chunk_begin(chunk, grain);
    partials[static_cast<std::size_t>(chunk)] =
        chunk_fn(begin, chunk_end(begin, count, grain));
  });
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total;
}

std::int64_t grain_for(std::int64_t work_per_item, std::int64_t target_work) {
  work_per_item = std::max<std::int64_t>(1, work_per_item);
  target_work = std::max<std::int64_t>(1, target_work);
  return std::max<std::int64_t>(1, target_work / work_per_item);
}

// ---- GEMM -----------------------------------------------------------------

namespace {

// Panel geometry. MC rows x (NC-column strips) of C are produced per task
// with a persistent double accumulator tile; the K dimension is walked in
// KC-sized cache blocks but never split across tasks, keeping each output
// element's accumulation a single ascending-k double sum.
constexpr std::int64_t kGemmMC = 64;
constexpr std::int64_t kGemmNC = 128;
constexpr std::int64_t kGemmKC = 256;
// Column span of one task: several NC strips so small-n problems still form
// enough tasks without making tasks tiny.
constexpr std::int64_t kGemmNOuter = 512;
// Below this many flops (2*m*n*k) dispatch overhead dominates: run the
// identical kernel serially in one chunk.
constexpr std::int64_t kGemmSerialFlops = 1 << 20;

/// For each batch element: dst (rows x cols, row-major) = src^T where src
/// is cols x rows row-major, both advancing rows*cols per element. One
/// parallel_for over batch x rows — per-batch dispatch would serialize the
/// elements and re-pay dispatch overhead batch times. A pure copy, so the
/// bytes are identical under any chunking.
void transpose_pack_batched(const float* src, float* dst, std::int64_t batch,
                            std::int64_t rows, std::int64_t cols) {
  constexpr std::int64_t kBlock = 64;
  const std::int64_t grain = std::max<std::int64_t>(
      kBlock, grain_for(cols, 1 << 16));
  parallel_for(batch * rows, grain, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::int64_t bi = t / rows;
        const std::int64_t r = t % rows;
        const float* src_b = src + bi * rows * cols;
        float* dst_b = dst + bi * rows * cols;
        for (std::int64_t c = c0; c < c1; ++c) {
          dst_b[r * cols + c] = src_b[c * rows + r];
        }
      }
    }
  });
}

/// One C panel: rows [i0,i1) x cols [j0,j1) of C = A(m x k) * B(k x n),
/// both dense row-major, double accumulators, ascending k.
void gemm_nn_panel(const float* a, const float* b, float* c, std::int64_t n,
                   std::int64_t k, std::int64_t i0, std::int64_t i1,
                   std::int64_t j0, std::int64_t j1, bool accumulate,
                   std::vector<double>& acc) {
  const simd::Ops& sops = simd::ops();
  for (std::int64_t jc = j0; jc < j1; jc += kGemmNC) {
    const std::int64_t jw = std::min(j1 - jc, kGemmNC);
    std::fill(acc.begin(),
              acc.begin() + static_cast<std::size_t>((i1 - i0) * kGemmNC), 0.0);
    // One register-tiled call per K block over the whole panel: each
    // element keeps its ascending-k double accumulation with separately
    // rounded mul and add, bit-identical to the scalar per-element loop.
    for (std::int64_t kk = 0; kk < k; kk += kGemmKC) {
      sops.gemm_tile_f64(acc.data(), kGemmNC, a + i0 * k + kk, k,
                         b + kk * n + jc, n, i1 - i0, jw,
                         std::min(k - kk, kGemmKC));
    }
    for (std::int64_t i = i0; i < i1; ++i) {
      const double* arow = acc.data() + (i - i0) * kGemmNC;
      float* crow = c + i * n + jc;
      if (accumulate) {
        for (std::int64_t j = 0; j < jw; ++j) {
          crow[j] += static_cast<float>(arow[j]);
        }
      } else {
        for (std::int64_t j = 0; j < jw; ++j) {
          crow[j] = static_cast<float>(arow[j]);
        }
      }
    }
  }
}

/// Canonical NN kernel over `batch` independent row-major problems. The
/// task grid is (batch x row-panels x column-strips) with fixed panel sizes,
/// so the split — and every accumulation order — is thread-count-invariant.
void gemm_nn_batched(std::int64_t batch, std::int64_t m, std::int64_t n,
                     std::int64_t k, const float* a, const float* b, float* c,
                     bool accumulate) {
  const std::int64_t mi = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t nj = (n + kGemmNOuter - 1) / kGemmNOuter;
  const std::int64_t tasks = batch * mi * nj;
  const std::int64_t flops = 2 * batch * m * n * k;
  const std::int64_t grain = flops < kGemmSerialFlops ? tasks : 1;
  parallel_for(tasks, grain, [&](std::int64_t t0, std::int64_t t1) {
    // Grow-only per-thread accumulator tile: gemm never nests inside gemm,
    // so one live user per thread; gemm_nn_panel zero-fills the rows it uses.
    thread_local std::vector<double> acc;
    if (acc.size() < static_cast<std::size_t>(kGemmMC * kGemmNC)) {
      acc.resize(static_cast<std::size_t>(kGemmMC * kGemmNC));
    }
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t bi = t / (mi * nj);
      const std::int64_t ip = (t / nj) % mi;
      const std::int64_t jp = t % nj;
      const std::int64_t i0 = ip * kGemmMC;
      const std::int64_t j0 = jp * kGemmNOuter;
      gemm_nn_panel(a + bi * m * k, b + bi * k * n, c + bi * m * n, n, k, i0,
                    std::min(m, i0 + kGemmMC), j0,
                    std::min(n, j0 + kGemmNOuter), accumulate, acc);
    }
  });
}

}  // namespace

void gemm_batched(Trans ta, Trans tb, std::int64_t batch, std::int64_t m,
                  std::int64_t n, std::int64_t k, const float* a,
                  const float* b, float* c, bool accumulate) {
  ORBIT2_REQUIRE(batch >= 0 && m >= 0 && n >= 0 && k >= 0,
                 "gemm dimensions must be non-negative");
  if (batch == 0 || m == 0 || n == 0) return;
  ORBIT2_OBS_SPAN_ARG("gemm", "kernels", "flops", 2 * batch * m * n * k);
  ORBIT2_OBS_COUNT("kernels.gemm_calls", 1);
  ORBIT2_OBS_COUNT("kernels.gemm_flops", 2 * batch * m * n * k);
  if (k == 0) {
    if (!accumulate) {
      std::fill(c, c + batch * m * n, 0.0f);
    }
    return;
  }
  // Canonicalize to NN: transpose-pack the T operand(s) once, up front.
  // The packing is a pure copy, so it cannot change results; afterwards one
  // inner kernel serves every variant, which is what makes the variants'
  // accumulation (double, ascending k) agree bitwise.
  // Grow-only per-thread pack buffers: every byte written is written for
  // this call before being read (transpose_pack is a pure copy), so stale
  // contents can never leak into results, and steady-state calls of a fixed
  // problem size allocate nothing. gemm does not nest inside gemm, so the
  // buffers have one live user per thread.
  thread_local std::vector<float> a_packed;
  thread_local std::vector<float> b_packed;
  const float* a_eff = a;
  const float* b_eff = b;
  if (ta == Trans::kT) {
    if (a_packed.size() < static_cast<std::size_t>(batch * m * k)) {
      a_packed.resize(static_cast<std::size_t>(batch * m * k));
    }
    transpose_pack_batched(a, a_packed.data(), batch, m, k);
    a_eff = a_packed.data();
  }
  if (tb == Trans::kT) {
    if (b_packed.size() < static_cast<std::size_t>(batch * k * n)) {
      b_packed.resize(static_cast<std::size_t>(batch * k * n));
    }
    transpose_pack_batched(b, b_packed.data(), batch, k, n);
    b_eff = b_packed.data();
  }
  gemm_nn_batched(batch, m, n, k, a_eff, b_eff, c, accumulate);
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  gemm_batched(ta, tb, 1, m, n, k, a, b, c, accumulate);
}

}  // namespace orbit2::kernels
