// Kernel-pool stress coverage: concurrent kernels::parallel_for callers,
// first touch of the lazily rebuilt pool from many threads, exception
// isolation between concurrent callers, and edge counts. Run under the
// `tsan` preset (ctest --preset tsan -R ThreadPoolStress) to prove the pool
// free of data races.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/kernels.hpp"

namespace orbit2 {
namespace {

/// Pins the kernel pool to `n` threads for one test and restores the default.
struct PoolThreads {
  explicit PoolThreads(std::size_t n) { kernels::set_max_threads(n); }
  ~PoolThreads() { kernels::set_max_threads(0); }
};

/// Runs `body(caller)` on `callers` threads at once and joins them.
template <typename Body>
void run_callers(int callers, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(callers));
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&body, c] { body(c); });
  }
  for (auto& thread : threads) thread.join();
}

TEST(ThreadPoolStress, ConcurrentSubmitFromManyThreads) {
  // 8 callers dispatching many small regions onto the shared pool at once.
  const PoolThreads threads(4);
  constexpr int kCallers = 8;
  constexpr int kCallsPerCaller = 250;
  std::atomic<int> counter{0};
  run_callers(kCallers, [&counter](int) {
    for (int call = 0; call < kCallsPerCaller; ++call) {
      kernels::parallel_for(4, 1, [&counter](std::int64_t, std::int64_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(counter.load(), kCallers * kCallsPerCaller * 4);
}

TEST(ThreadPoolStress, ExceptionFromParallelForBody) {
  const PoolThreads threads(4);
  std::atomic<int> survivors{0};
  EXPECT_THROW(kernels::parallel_for(1000, 1,
                                     [&survivors](std::int64_t b,
                                                  std::int64_t) {
                                       if (b == 617) {
                                         throw Error("body failed", __FILE__,
                                                     __LINE__);
                                       }
                                       survivors.fetch_add(1);
                                     }),
               Error);
  // Every other chunk still ran, and the next call on the pool is clean.
  EXPECT_EQ(survivors.load(), 999);
  EXPECT_NO_THROW(
      kernels::parallel_for(64, 1, [](std::int64_t, std::int64_t) {}));
}

TEST(ThreadPoolStress, ExceptionStaysWithItsCaller) {
  // One caller throws on every call while another runs clean regions on the
  // same pool: the failure must surface only in the caller that raised it.
  const PoolThreads threads(4);
  constexpr int kCalls = 200;
  std::atomic<int> thrower_caught{0};
  std::atomic<int> clean_caught{0};
  std::atomic<std::int64_t> clean_chunks{0};
  run_callers(2, [&](int caller) {
    for (int call = 0; call < kCalls; ++call) {
      try {
        kernels::parallel_for(16, 1, [&](std::int64_t b, std::int64_t) {
          if (caller == 0 && b == 7) {
            throw Error("caller 0 failed", __FILE__, __LINE__);
          }
          if (caller == 1) clean_chunks.fetch_add(1);
        });
      } catch (const Error&) {
        (caller == 0 ? thrower_caught : clean_caught).fetch_add(1);
      }
    }
  });
  EXPECT_EQ(thrower_caught.load(), kCalls);
  EXPECT_EQ(clean_caught.load(), 0);
  EXPECT_EQ(clean_chunks.load(), kCalls * 16);
}

TEST(ThreadPoolStress, ParallelForEdgeCounts) {
  const PoolThreads threads(4);

  std::atomic<int> ran_zero{0};
  kernels::parallel_for(0, 1, [&ran_zero](std::int64_t, std::int64_t) {
    ran_zero.fetch_add(1);
  });
  EXPECT_EQ(ran_zero.load(), 0);

  std::atomic<int> ran_one{0};
  kernels::parallel_for(1, 1, [&ran_one](std::int64_t b, std::int64_t e) {
    ran_one.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran_one.load(), 1);

  constexpr std::int64_t kHuge = std::int64_t{1} << 18;
  std::vector<int> hits(static_cast<std::size_t>(kHuge), 0);
  kernels::parallel_for(kHuge, 1, [&hits](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)] += 1;
  });
  std::size_t total = 0;
  for (int h : hits) total += static_cast<std::size_t>(h);
  EXPECT_EQ(total, static_cast<std::size_t>(kHuge));  // each index once

  // A count near INT64_MAX split across the pool: the chunks still tile it.
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::atomic<std::int64_t> covered{0};
  kernels::parallel_for(kMax, kMax / 4, [&covered](std::int64_t b,
                                                   std::int64_t e) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), kMax);
}

TEST(ThreadPoolStress, ParallelForChunksPartitionExactly) {
  const PoolThreads threads(7);
  constexpr std::int64_t kCount = 100003;  // prime: short final chunk
  std::atomic<std::int64_t> covered{0};
  std::atomic<int> chunks{0};
  kernels::parallel_for(kCount, 1000, [&](std::int64_t begin,
                                          std::int64_t end) {
    ASSERT_LT(begin, end);
    ASSERT_EQ(begin % 1000, 0);
    covered.fetch_add(end - begin, std::memory_order_relaxed);
    chunks.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), kCount);
  EXPECT_EQ(chunks.load(), 101);
}

TEST(ThreadPoolStress, DefaultPoolLazyInitFromManyThreads) {
  // set_max_threads(0) tears the pool down; the first parallel call after
  // it rebuilds the pool, and that first touch may come from any thread.
  // Hammer it concurrently so TSan sees the lazy construction race.
  kernels::set_max_threads(4);
  kernels::parallel_for(4, 1, [](std::int64_t, std::int64_t) {});
  kernels::set_max_threads(0);
  constexpr int kCallers = 8;
  std::atomic<int> counter{0};
  run_callers(kCallers, [&counter](int) {
    for (int call = 0; call < 50; ++call) {
      kernels::parallel_for(2, 1, [&counter](std::int64_t, std::int64_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(counter.load(), kCallers * 50 * 2);
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  // 8 callers driving parallel_for on the shared pool concurrently: each
  // call must still cover its own index space exactly once.
  const PoolThreads threads(4);
  constexpr int kCallers = 8;
  std::vector<std::vector<int>> spaces(kCallers, std::vector<int>(5000, 0));
  run_callers(kCallers, [&spaces](int caller) {
    std::vector<int>& space = spaces[static_cast<std::size_t>(caller)];
    kernels::parallel_for(static_cast<std::int64_t>(space.size()), 64,
                          [&space](std::int64_t b, std::int64_t e) {
                            for (std::int64_t i = b; i < e; ++i) {
                              space[static_cast<std::size_t>(i)]++;
                            }
                          });
  });
  for (const std::vector<int>& space : spaces) {
    for (int v : space) ASSERT_EQ(v, 1);
  }
}

}  // namespace
}  // namespace orbit2
