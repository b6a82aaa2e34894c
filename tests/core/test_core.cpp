// Unit tests for the core substrate: error macros, RNG determinism and
// statistics, bf16 rounding, kernel-pool parallel_for semantics, Shape
// arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "core/bf16.hpp"
#include "core/error.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"

namespace orbit2 {
namespace {

// ---- error ---------------------------------------------------------------

TEST(Error, CheckPassesOnTrue) {
  EXPECT_NO_THROW(ORBIT2_CHECK(1 + 1 == 2));
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    ORBIT2_CHECK(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_core.cpp"), std::string::npos);
  }
}

TEST(Error, RequireThrowsWithoutMessage) {
  EXPECT_THROW(ORBIT2_REQUIRE(false), Error);
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(ORBIT2_FAIL("unsupported"), Error);
}

// ---- rng -------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(42);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(9);
  Rng child = parent.split();
  // Identical next draws would indicate stream aliasing.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

// ---- bf16 ---------------------------------------------------------------

TEST(Bf16, ExactForSmallPowersOfTwo) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -4.0f, 0.25f}) {
    EXPECT_EQ(bf16_round(v), v) << v;
  }
}

TEST(Bf16, RoundingErrorBounded) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 10.0));
    const float r = bf16_round(v);
    // bf16 has 8 mantissa bits incl. implicit: relative error < 2^-8.
    EXPECT_LE(std::fabs(r - v), std::fabs(v) * (1.0f / 256.0f) + 1e-30f);
  }
}

TEST(Bf16, NanSurvives) {
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(bf16(nan).to_float()));
}

TEST(Bf16, InfinitySurvives) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16(inf).to_float(), inf);
  EXPECT_EQ(bf16(-inf).to_float(), -inf);
}

TEST(Bf16, RoundToNearestEven) {
  // 1.0 + 2^-8 is exactly halfway between two bf16 values around 1.0;
  // RNE goes to the even mantissa (1.0).
  const float halfway = 1.0f + 1.0f / 256.0f;
  EXPECT_EQ(bf16_round(halfway), 1.0f);
}

// ---- thread pool (kernels::parallel_for) ---------------------------------

/// Pins the kernel pool to `n` threads for one test and restores the default.
struct PoolThreads {
  explicit PoolThreads(std::size_t n) { kernels::set_max_threads(n); }
  ~PoolThreads() { kernels::set_max_threads(0); }
};

TEST(ThreadPool, RunsAllTasks) {
  const PoolThreads threads(4);
  std::atomic<int> counter{0};
  kernels::parallel_for(100, 1, [&counter](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++counter;
  });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  const PoolThreads threads(3);
  std::vector<std::atomic<int>> hits(257);
  kernels::parallel_for(257, 5, [&hits](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  const PoolThreads threads(2);
  EXPECT_NO_THROW(kernels::parallel_for(
      0, 1, [](std::int64_t, std::int64_t) { FAIL(); }));
}

TEST(ThreadPool, TaskExceptionRethrownOnWait) {
  // parallel_for waits for every chunk, then rethrows on the caller.
  const PoolThreads threads(2);
  EXPECT_THROW(kernels::parallel_for(8, 1,
                                     [](std::int64_t b, std::int64_t) {
                                       if (b == 5) {
                                         throw Error("boom", "here", 1);
                                       }
                                     }),
               Error);
  // The pool is reusable afterwards.
  std::atomic<int> counter{0};
  kernels::parallel_for(4, 1, [&counter](std::int64_t, std::int64_t) {
    ++counter;
  });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPool, ChunksPartitionRange) {
  // Chunks are [0,g), [g,2g), ...: a pure function of (count, grain).
  const PoolThreads threads(4);
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  kernels::parallel_for(10, 3, [&](std::int64_t b, std::int64_t e) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(chunks, expected);
}

// ---- shape ----------------------------------------------------------------

TEST(Shape, NumelAndAccess) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
}

TEST(Shape, ScalarShape) {
  Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
  EXPECT_EQ(Shape({2, 3}).to_string(), "[2, 3]");
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({-1, 2}), Error);
}

TEST(Shape, OutOfRangeAxisThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], Error);
  EXPECT_THROW(s[-1], Error);
}

}  // namespace
}  // namespace orbit2
