// Kernel execution layer tests: deterministic chunking, serial-vs-parallel
// bit-identity for every refactored hot path, and the unified GEMM
// accumulation policy (cross-variant bitwise agreement, no data-dependent
// skips).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/attention.hpp"
#include "attention/window_attention.hpp"
#include "autograd/nn.hpp"
#include "core/kernels.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/resize.hpp"
#include "tensor/tensor.hpp"

namespace orbit2 {
namespace {

/// Runs `make` at 1 thread and at 4 threads and asserts the two results are
/// bitwise identical — the kernel layer's determinism contract.
void expect_thread_invariant(const std::function<Tensor()>& make) {
  kernels::set_max_threads(1);
  const Tensor serial = make();
  kernels::set_max_threads(4);
  const Tensor parallel = make();
  kernels::set_max_threads(0);
  ASSERT_EQ(serial.shape(), parallel.shape());
  for (std::int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "mismatch at flat index " << i;
  }
}

TEST(Kernels, ParallelForCoversEveryIndexOnceAnyGrain) {
  kernels::set_max_threads(4);
  for (std::int64_t count : {0, 1, 7, 64, 1000}) {
    for (std::int64_t grain : {1, 3, 64, 4096}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
      kernels::parallel_for(count, grain,
                            [&](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                hits[static_cast<std::size_t>(i)]++;
                              }
                            });
      for (std::int64_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "count " << count << " grain " << grain << " index " << i;
      }
    }
  }
  kernels::set_max_threads(0);
}

TEST(Kernels, ParallelForPropagatesExceptions) {
  kernels::set_max_threads(4);
  EXPECT_THROW(
      kernels::parallel_for(100, 1,
                            [](std::int64_t b, std::int64_t) {
                              if (b >= 50) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<std::int64_t> total{0};
  kernels::parallel_for(10, 1, [&](std::int64_t b, std::int64_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 10);
  kernels::set_max_threads(0);
}

TEST(Kernels, ParallelReduceBitIdenticalAcrossThreadCounts) {
  // Sum of values whose float rounding is order-sensitive; fixed chunking +
  // ascending combine order must make the result thread-count-invariant.
  std::vector<double> values;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<double>(rng.normal()) * std::pow(10.0, i % 7));
  }
  auto reduce = [&] {
    return kernels::parallel_reduce(
        static_cast<std::int64_t>(values.size()), 128,
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) {
            acc += values[static_cast<std::size_t>(i)];
          }
          return acc;
        });
  };
  kernels::set_max_threads(1);
  const double serial = reduce();
  kernels::set_max_threads(4);
  const double parallel = reduce();
  kernels::set_max_threads(0);
  EXPECT_EQ(serial, parallel);
}

TEST(Kernels, NestedParallelForRunsInlineWithoutDeadlock) {
  kernels::set_max_threads(4);
  std::vector<std::atomic<int>> hits(64);
  kernels::parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t outer = b; outer < e; ++outer) {
      EXPECT_TRUE(kernels::in_parallel_region());
      kernels::parallel_for(8, 1, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t inner = ib; inner < ie; ++inner) {
          hits[static_cast<std::size_t>(outer * 8 + inner)]++;
        }
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(kernels::in_parallel_region());
  kernels::set_max_threads(0);
}

TEST(Kernels, GrainForTargetsWorkBudget) {
  EXPECT_GE(kernels::grain_for(1), 1);
  EXPECT_EQ(kernels::grain_for(1 << 15), 1);
  EXPECT_EQ(kernels::grain_for((1 << 15) + 1), 1);
  EXPECT_GT(kernels::grain_for(16), 1);
}

// ---- GEMM policy ----------------------------------------------------------

TEST(Kernels, GemmVariantsAgreeBitwiseOnOddSizes) {
  // matmul_nt(a, b) must equal matmul(a, b^T) bit-for-bit, and matmul_tn
  // likewise — the unified accumulation policy makes the canonicalized
  // variants identical, not merely close.
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{17, 31}, rng);
  const Tensor b = Tensor::randn(Shape{23, 31}, rng);  // for NT: [n, k]
  const Tensor nt = matmul_nt(a, b);
  const Tensor nn = matmul(a, b.transpose2d());
  ASSERT_EQ(nt.shape(), nn.shape());
  for (std::int64_t i = 0; i < nt.numel(); ++i) ASSERT_EQ(nt[i], nn[i]);

  const Tensor at = Tensor::randn(Shape{31, 17}, rng);  // for TN: [k, m]
  const Tensor bb = Tensor::randn(Shape{31, 23}, rng);
  const Tensor tn = matmul_tn(at, bb);
  const Tensor nn2 = matmul(at.transpose2d(), bb);
  ASSERT_EQ(tn.shape(), nn2.shape());
  for (std::int64_t i = 0; i < tn.numel(); ++i) ASSERT_EQ(tn[i], nn2[i]);
}

TEST(Kernels, GemmPropagatesNanThroughZeroOperands) {
  // The old kernels skipped a_ik == 0 as a sparsity shortcut, which silently
  // dropped NaN/Inf from the other operand. The unified policy must not.
  Tensor a = Tensor::zeros(Shape{2, 2});
  Tensor b = Tensor::full(Shape{2, 2}, std::numeric_limits<float>::quiet_NaN());
  const Tensor c = matmul(a, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_TRUE(std::isnan(c[i])) << "NaN dropped at " << i;
  }
}

TEST(Kernels, GemmAccumulateAddsToExistingOutput) {
  Rng rng(5);
  const Tensor a = Tensor::randn(Shape{9, 13}, rng);
  const Tensor b = Tensor::randn(Shape{13, 7}, rng);
  const Tensor product = matmul(a, b);
  Tensor out = Tensor::full(Shape{9, 7}, 2.0f);
  matmul_accumulate(out, a, b);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out[i], 2.0f + product[i]);
  }
}

TEST(Kernels, GemmThreadCountInvariant) {
  Rng rng(21);
  const Tensor a = Tensor::randn(Shape{67, 129}, rng);
  const Tensor b = Tensor::randn(Shape{129, 43}, rng);
  expect_thread_invariant([&] { return matmul(a, b); });
  expect_thread_invariant([&] { return matmul_tn(a, a); });
  expect_thread_invariant([&] { return matmul_nt(b, b); });
}

TEST(Kernels, BmmMatchesPerBatchMatmulBitwise) {
  Rng rng(7);
  const Tensor a = Tensor::randn(Shape{3, 17, 23}, rng);
  const Tensor b = Tensor::randn(Shape{3, 23, 19}, rng);
  const Tensor batched = bmm(a, b);
  for (std::int64_t bi = 0; bi < 3; ++bi) {
    const Tensor ai = a.slice(0, bi, 1).reshape(Shape{17, 23});
    const Tensor bi_t = b.slice(0, bi, 1).reshape(Shape{23, 19});
    const Tensor ref = matmul(ai, bi_t);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(batched[bi * ref.numel() + i], ref[i]);
    }
  }
}

/// Floats over 2^-8 .. 2^8 with random signs: the products are exact in
/// double, but partial sums of terms this far apart round, so a reordered
/// or split k sum changes the rounded float.
std::vector<float> spread_floats(std::int64_t count, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    x = static_cast<float>(rng.normal() *
                           std::ldexp(1.0, static_cast<int>(
                                               rng.uniform(-8.0, 8.0))));
  }
  return v;
}

TEST(Kernels, GemmMatchesAscendingKReferenceOnEveryIsa) {
  // The documented accumulation policy, written out per element with no
  // shared code: a double sum over ascending k from 0.0, one float rounding,
  // then (when accumulating) one float add. Every panel and tile edge of
  // the library kernel must reproduce it byte for byte, on every ISA and
  // thread count, for gemm and for each problem of gemm_batched.
  const simd::Isa saved_isa = simd::active_isa();
  Rng rng(29);
  for (const std::int64_t m : {1, 3, 4, 5, 63, 64, 65}) {
    for (const std::int64_t n : {1, 15, 16, 17, 129, 513}) {
      for (const std::int64_t k : {0, 1, 255, 256, 257}) {
        constexpr std::int64_t kBatch = 2;
        std::vector<float> a = spread_floats(kBatch * m * k, rng);
        std::vector<float> b = spread_floats(kBatch * k * n, rng);
        const std::vector<float> c0 = spread_floats(kBatch * m * n, rng);
        // A rounded double sum seldom changes its float cast, so each row
        // gets an exactly cancelling pair of ~2^50 products at q = 0 and
        // q = k - 1. Every partial sum in between then rounds on a coarse
        // grid, and any other summation order moves the float result.
        for (std::int64_t bi = 0; k >= 2 && bi < kBatch; ++bi) {
          for (std::int64_t i = 0; i < m; ++i) {
            float* arow = a.data() + (bi * m + i) * k;
            arow[0] = static_cast<float>(std::ldexp(rng.normal(), 50));
            arow[k - 1] = -arow[0];
          }
          const float* first = b.data() + bi * k * n;
          std::copy(first, first + n, b.data() + (bi * k + k - 1) * n);
        }
        std::vector<float> product(static_cast<std::size_t>(kBatch * m * n));
        for (std::int64_t bi = 0; bi < kBatch; ++bi) {
          const float* ab = a.data() + bi * m * k;
          const float* bb = b.data() + bi * k * n;
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              double sum = 0.0;
              for (std::int64_t q = 0; q < k; ++q) {
                sum += static_cast<double>(ab[i * k + q]) *
                       static_cast<double>(bb[q * n + j]);
              }
              product[static_cast<std::size_t>((bi * m + i) * n + j)] =
                  static_cast<float>(sum);
            }
          }
        }
        for (const bool accumulate : {false, true}) {
          std::vector<float> want = product;
          if (accumulate) {
            for (std::size_t i = 0; i < want.size(); ++i) {
              want[i] = c0[i] + product[i];
            }
          }
          const std::size_t first = static_cast<std::size_t>(m * n);
          for (const simd::Isa isa : simd::supported_isas()) {
            simd::set_isa(isa);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
              kernels::set_max_threads(threads);
              std::vector<float> single = c0;
              kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, m, n, k,
                            a.data(), b.data(), single.data(), accumulate);
              std::vector<float> batched = c0;
              kernels::gemm_batched(kernels::Trans::kN, kernels::Trans::kN,
                                    kBatch, m, n, k, a.data(), b.data(),
                                    batched.data(), accumulate);
              const std::string where =
                  std::string(" isa=") + simd::isa_name(isa) +
                  " threads=" + std::to_string(threads) +
                  " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(k) +
                  " accumulate=" + std::to_string(accumulate);
              EXPECT_EQ(0, std::memcmp(single.data(), want.data(),
                                       first * sizeof(float)))
                  << "gemm" << where;
              // gemm must leave the second problem's output untouched.
              EXPECT_EQ(0, std::memcmp(single.data() + first,
                                       c0.data() + first,
                                       first * sizeof(float)))
                  << "gemm wrote past its output" << where;
              EXPECT_EQ(0, std::memcmp(batched.data(), want.data(),
                                       want.size() * sizeof(float)))
                  << "gemm_batched" << where;
            }
          }
        }
      }
    }
  }
  kernels::set_max_threads(0);
  simd::set_isa(saved_isa);
}

// ---- Serial vs parallel bit-identity for every refactored kernel ----------

TEST(Kernels, ConvKernelsThreadCountInvariant) {
  Rng rng(13);
  const Tensor input = Tensor::randn(Shape{3, 13, 17}, rng);
  const Tensor weight = Tensor::randn(Shape{5, 3, 3, 3}, rng);
  const Tensor bias = Tensor::randn(Shape{5}, rng);
  Conv2dSpec spec;
  spec.kernel_h = 3;
  spec.kernel_w = 3;
  spec.stride = 2;
  spec.pad = 1;
  const Tensor out = conv2d_forward(input, weight, bias, spec);
  const Tensor grad = Tensor::randn(out.shape(), rng);

  expect_thread_invariant(
      [&] { return conv2d_forward(input, weight, bias, spec); });
  expect_thread_invariant(
      [&] { return conv2d_backward_input(grad, weight, 13, 17, spec); });
  expect_thread_invariant([&] {
    Tensor gw = Tensor::zeros(weight.shape());
    Tensor gb = Tensor::zeros(Shape{5});
    conv2d_backward_params(grad, input, gw, gb, spec);
    // Pack both grads into one tensor for comparison.
    Tensor packed(Shape{gw.numel() + gb.numel()});
    for (std::int64_t i = 0; i < gw.numel(); ++i) packed[i] = gw[i];
    for (std::int64_t i = 0; i < gb.numel(); ++i) packed[gw.numel() + i] = gb[i];
    return packed;
  });
}

TEST(Kernels, RowwiseOpsThreadCountInvariant) {
  Rng rng(17);
  const Tensor x = Tensor::randn(Shape{37, 53}, rng);
  const Tensor gamma = Tensor::randn(Shape{53}, rng);
  const Tensor beta = Tensor::randn(Shape{53}, rng);
  const Tensor grad = Tensor::randn(Shape{37, 53}, rng);

  expect_thread_invariant([&] { return softmax_rows(x); });
  const Tensor probs = softmax_rows(x);
  expect_thread_invariant([&] { return softmax_rows_backward(probs, grad); });
  expect_thread_invariant(
      [&] { return layernorm_rows(x, gamma, beta, 1e-5f, nullptr, nullptr); });
  expect_thread_invariant([&] {
    Tensor mean, inv_std;
    layernorm_rows(x, gamma, beta, 1e-5f, &mean, &inv_std);
    Tensor gg = Tensor::zeros(Shape{53});
    Tensor gb = Tensor::zeros(Shape{53});
    Tensor gi = layernorm_rows_backward(grad, x, gamma, mean, inv_std, gg, gb);
    Tensor packed(Shape{gi.numel() + gg.numel() + gb.numel()});
    std::int64_t at = 0;
    for (std::int64_t i = 0; i < gi.numel(); ++i) packed[at++] = gi[i];
    for (std::int64_t i = 0; i < gg.numel(); ++i) packed[at++] = gg[i];
    for (std::int64_t i = 0; i < gb.numel(); ++i) packed[at++] = gb[i];
    return packed;
  });
  expect_thread_invariant([&] { return gelu(x); });
  expect_thread_invariant([&] { return gelu_backward(x, grad); });
}

TEST(Kernels, AttentionThreadCountInvariant) {
  Rng rng(19);
  const Tensor q = Tensor::randn(Shape{75, 16}, rng);
  const Tensor k = Tensor::randn(Shape{91, 16}, rng);
  const Tensor v = Tensor::randn(Shape{91, 16}, rng);
  const float scale = 0.25f;
  FlashParams params;
  params.block_q = 16;
  params.block_kv = 16;

  expect_thread_invariant(
      [&] { return attention_naive_forward(q, k, v, scale, nullptr); });
  expect_thread_invariant(
      [&] { return attention_flash_forward(q, k, v, scale, nullptr, params); });

  AttentionContext ctx;
  attention_flash_forward(q, k, v, scale, &ctx, params);
  const Tensor grad = Tensor::randn(Shape{75, 16}, rng);
  expect_thread_invariant([&] {
    AttentionGrads grads = attention_flash_backward(ctx, grad, params);
    Tensor packed(
        Shape{grads.dq.numel() + grads.dk.numel() + grads.dv.numel()});
    std::int64_t at = 0;
    for (std::int64_t i = 0; i < grads.dq.numel(); ++i) packed[at++] = grads.dq[i];
    for (std::int64_t i = 0; i < grads.dk.numel(); ++i) packed[at++] = grads.dk[i];
    for (std::int64_t i = 0; i < grads.dv.numel(); ++i) packed[at++] = grads.dv[i];
    return packed;
  });
}

TEST(Kernels, WindowAttentionThreadCountInvariant) {
  Rng rng(23);
  const autograd::MultiHeadSelfAttention mha("mha", 12, 3, rng);
  const Tensor x = Tensor::randn(Shape{64, 12}, rng);
  WindowAttentionSpec spec;
  spec.grid_h = 8;
  spec.grid_w = 8;
  spec.window = 4;
  spec.shift = 2;
  for (const bool flash : {false, true}) {
    expect_thread_invariant([&] {
      return mha.forward_windowed(autograd::Var::constant(x), flash, spec)
          .value();
    });
  }
}

TEST(Kernels, ResizeThreadCountInvariant) {
  Rng rng(29);
  const Tensor image = Tensor::randn(Shape{3, 15, 21}, rng);
  const Tensor grad = Tensor::randn(Shape{3, 30, 42}, rng);
  expect_thread_invariant([&] { return resize_bilinear(image, 30, 42); });
  // Large enough that (channels * out_h) splits into multiple parallel_for
  // chunks, so pool workers — not the dispatching thread — run the row
  // loop: regression test for the tap tables being resolved through a
  // worker's (empty) thread_local instead of the caller's filled one.
  expect_thread_invariant([&] { return resize_bilinear(image, 128, 256); });
  expect_thread_invariant(
      [&] { return resize_bilinear_backward(grad, 15, 21); });
  expect_thread_invariant([&] { return resize_nearest(image, 29, 43); });
  const Tensor even = Tensor::randn(Shape{2, 12, 18}, rng);
  expect_thread_invariant([&] { return coarsen_area(even, 3); });
}

TEST(Kernels, SetMaxThreadsControlsPoolSize) {
  kernels::set_max_threads(3);
  EXPECT_EQ(kernels::max_threads(), 3u);
  kernels::set_max_threads(0);
  EXPECT_GE(kernels::max_threads(), 1u);
}

/// Sets an environment variable for the current scope and restores the prior
/// value (or absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
      had_value_ = true;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(Kernels, ThreadEnvRequiresFullStringParse) {
  // A trailing-garbage value like "4abc" must not be honored as 4: the whole
  // string has to parse, otherwise the hardware default applies.
  kernels::set_max_threads(0);
  const std::size_t fallback =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const char* junk : {"4abc", "abc", "", "4 ", "0x10", "-3", "0"}) {
    ScopedEnv env("ORBIT2_NUM_THREADS", junk);
    EXPECT_EQ(kernels::max_threads(), fallback)
        << "ORBIT2_NUM_THREADS=\"" << junk << "\" should fall back";
  }
  // Leading whitespace is standard strtoll behavior and stays accepted.
  for (const char* good : {"4", " 4"}) {
    ScopedEnv env("ORBIT2_NUM_THREADS", good);
    EXPECT_EQ(kernels::max_threads(), 4u);
  }
  kernels::set_max_threads(0);
}

TEST(Kernels, ThreadEnvClampsToHardwareMultiple) {
  kernels::set_max_threads(0);
  const std::size_t fallback =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t ceiling = 4 * fallback;
  // In-range values saturate-and-clamp instead of spawning a pathological
  // pool; wildly overflowing literals saturate in strtoll and clamp too.
  for (const char* huge : {"999999999", "99999999999999999999999999"}) {
    ScopedEnv env("ORBIT2_NUM_THREADS", huge);
    EXPECT_EQ(kernels::max_threads(), ceiling)
        << "ORBIT2_NUM_THREADS=" << huge << " should clamp";
  }
  kernels::set_max_threads(0);
}

TEST(Kernels, ChunkMathIsOverflowSafeNearInt64Max) {
  // The old ceil formula (count + grain - 1) / grain overflowed for counts
  // near INT64_MAX. Chunk boundaries must stay exact at the extreme.
  kernels::set_max_threads(1);  // inline execution: deterministic span order
  const std::int64_t count = std::numeric_limits<std::int64_t>::max();
  const std::int64_t grain = std::int64_t{1} << 62;

  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  kernels::parallel_for(count, grain,
                        [&](std::int64_t begin, std::int64_t end) {
                          spans.emplace_back(begin, end);
                        });
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].first, 0);
  EXPECT_EQ(spans[0].second, grain);
  EXPECT_EQ(spans[1].first, grain);
  EXPECT_EQ(spans[1].second, count);

  // grain == count: exactly one chunk, no phantom empty tail.
  spans.clear();
  kernels::parallel_for(count, count,
                        [&](std::int64_t begin, std::int64_t end) {
                          spans.emplace_back(begin, end);
                        });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, 0);
  EXPECT_EQ(spans[0].second, count);

  // parallel_reduce shares the same chunk math.
  const double total = kernels::parallel_reduce(
      count, grain, [](std::int64_t begin, std::int64_t end) {
        return static_cast<double>(end - begin);
      });
  EXPECT_EQ(total, static_cast<double>(count));
  kernels::set_max_threads(0);
}

TEST(Kernels, BatchedTransposePackBitwiseAcrossThreads) {
  // NT/TN batched GEMM packs every batch element's transpose in one
  // parallel_for over batch * rows (no nested parallel_for per element).
  // The pack is a pure copy, so batched must match per-batch bit for bit at
  // every thread count. k is large enough that the pack spans chunks.
  Rng rng(29);
  const std::int64_t batch = 3, m = 65, n = 33, k = 1050;
  const Tensor a = Tensor::randn(Shape{batch, m, k}, rng);
  const Tensor a_t = Tensor::randn(Shape{batch, k, m}, rng);
  const Tensor b = Tensor::randn(Shape{batch, k, n}, rng);
  const Tensor b_nt = Tensor::randn(Shape{batch, n, k}, rng);

  // Per-batch references at one thread.
  kernels::set_max_threads(1);
  std::vector<float> ref_nt(static_cast<std::size_t>(batch * m * n));
  std::vector<float> ref_tn(static_cast<std::size_t>(batch * m * n));
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    kernels::gemm(kernels::Trans::kN, kernels::Trans::kT, m, n, k,
                  a.data().data() + bi * m * k,
                  b_nt.data().data() + bi * n * k, ref_nt.data() + bi * m * n);
    kernels::gemm(kernels::Trans::kT, kernels::Trans::kN, m, n, k,
                  a_t.data().data() + bi * k * m,
                  b.data().data() + bi * k * n, ref_tn.data() + bi * m * n);
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    kernels::set_max_threads(threads);
    std::vector<float> got(static_cast<std::size_t>(batch * m * n));
    kernels::gemm_batched(kernels::Trans::kN, kernels::Trans::kT, batch, m, n,
                          k, a.data().data(), b_nt.data().data(), got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), ref_nt.data(),
                             got.size() * sizeof(float)))
        << "batched NT diverged at " << threads << " thread(s)";
    kernels::gemm_batched(kernels::Trans::kT, kernels::Trans::kN, batch, m, n,
                          k, a_t.data().data(), b.data().data(), got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), ref_tn.data(),
                             got.size() * sizeof(float)))
        << "batched TN diverged at " << threads << " thread(s)";
  }
  kernels::set_max_threads(0);
}

}  // namespace
}  // namespace orbit2
