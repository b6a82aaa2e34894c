// Kernel-layer microbenchmarks: legacy serial reference kernels vs the
// unified parallel kernel layer (core/kernels.hpp), at 1 thread and at the
// requested thread count. Emits a JSON array on stdout so EXPERIMENTS.md and
// CI can diff runs mechanically.
//
// The "legacy" variants are the pre-kernel-layer implementations, kept here
// verbatim as a fixed baseline: float-accumulator blocked NN GEMM with the
// zero-skip branch, double-accumulator NT row dots, rank-1 TN updates with
// zero-skip, the serial direct conv2d forward, and the serial online-softmax
// flash forward. They are intentionally NOT the library kernels, so this
// harness keeps measuring the same baseline even as the library evolves.
//
// Conv2d rows also time conv2d_backward_params ("conv2d_bwd_params") at
// Reslim's residual-conv shapes, next to the forward at the same shapes; both
// count the forward's multiply-adds, so their GF/s compare directly. FFT rows
// time fft2d and ifft2d at the data pipeline's 64x128 grid and at a
// non-power-of-two 30x45, plus one gaussian_random_field at 64x128.
//
// Usage: bench_kernels [--reps N] [--threads N] [--quick] [--trace PATH]
//   --reps N     timing repetitions per case, best-of (default 3)
//   --threads N  thread count for the parallel "kernels" variant (default 4)
//   --quick      drop the largest GEMM/attention shapes (CI smoke runs)
//   --trace PATH enable obs tracing and write Chrome trace JSON to PATH

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "attention/attention.hpp"
#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/rng.hpp"
#include "core/simd/simd.hpp"
#include "data/generator.hpp"
#include "fft/fft.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/tensor.hpp"

namespace {

using orbit2::Conv2dSpec;
using orbit2::FlashParams;
using orbit2::Rng;
using orbit2::Shape;
using orbit2::Tensor;

// ---------------------------------------------------------------------------
// Legacy serial reference kernels (pre-kernel-layer implementations).
// ---------------------------------------------------------------------------

constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 64;
constexpr std::int64_t kBlockK = 64;

// out(M,N) += a(M,K) * b(K,N): blocked, float accumulator, zero-skip.
void legacy_gemm_nn(float* out, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k) {
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::int64_t i1 = std::min(m, i0 + kBlockM);
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k, k0 + kBlockK);
      for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::int64_t j1 = std::min(n, j0 + kBlockN);
        for (std::int64_t i = i0; i < i1; ++i) {
          for (std::int64_t kk = k0; kk < k1; ++kk) {
            const float aik = a[i * k + kk];
            if (aik == 0.0f) continue;
            const float* brow = b + kk * n;
            float* orow = out + i * n;
            for (std::int64_t j = j0; j < j1; ++j) orow[j] += aik * brow[j];
          }
        }
      }
    }
  }
}

// out(M,N) = a(M,K) * b(N,K)^T: row-dot products, double accumulator.
void legacy_gemm_nt(float* out, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float* ra = a + i * k;
      const float* rb = b + j * k;
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(ra[kk]) * rb[kk];
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
}

// out(M,N) += a(K,M)^T * b(K,N): rank-1 updates, zero-skip.
void legacy_gemm_tn(float* out, const float* a, const float* b, std::int64_t m,
                    std::int64_t n, std::int64_t k) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* ra = a + kk * m;
    const float* rb = b + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = ra[i];
      if (av == 0.0f) continue;
      float* ro = out + i * n;
      for (std::int64_t j = 0; j < n; ++j) ro[j] += av * rb[j];
    }
  }
}

// Serial direct conv2d forward, [C,H,W] x [O,C,kh,kw].
Tensor legacy_conv2d_forward(const Tensor& input, const Tensor& weight,
                             const Tensor& bias, const Conv2dSpec& spec) {
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = weight.dim(0);
  const std::int64_t oh =
      orbit2::conv2d_out_dim(h, spec.kernel_h, spec.stride, spec.pad);
  const std::int64_t ow =
      orbit2::conv2d_out_dim(w, spec.kernel_w, spec.stride, spec.pad);
  Tensor out = Tensor::zeros(Shape{cout, oh, ow});
  const float* in = input.data().data();
  const float* wt = weight.data().data();
  float* po = out.data().data();
  for (std::int64_t oc = 0; oc < cout; ++oc) {
    const float b = bias[oc];
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = b;
        const std::int64_t iy0 = oy * spec.stride - spec.pad;
        const std::int64_t ix0 = ox * spec.stride - spec.pad;
        for (std::int64_t ic = 0; ic < cin; ++ic) {
          const float* in_c = in + ic * h * w;
          const float* wt_c =
              wt + ((oc * cin + ic) * spec.kernel_h) * spec.kernel_w;
          for (std::int64_t ky = 0; ky < spec.kernel_h; ++ky) {
            const std::int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < spec.kernel_w; ++kx) {
              const std::int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= w) continue;
              acc += static_cast<double>(in_c[iy * w + ix]) *
                     wt_c[ky * spec.kernel_w + kx];
            }
          }
        }
        po[(oc * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

// Serial online-softmax flash forward (pre-kernel-layer implementation).
Tensor legacy_flash_forward(const Tensor& q, const Tensor& k, const Tensor& v,
                            float scale, const FlashParams& params) {
  const std::int64_t nq = q.dim(0), nk = k.dim(0);
  const std::int64_t d = q.dim(1), dv = v.dim(1);
  Tensor output = Tensor::zeros(Shape{nq, dv});
  const float* pq = q.data().data();
  const float* pk = k.data().data();
  const float* pv = v.data().data();
  float* po = output.data().data();
  std::vector<float> row_max(static_cast<std::size_t>(nq),
                             -std::numeric_limits<float>::infinity());
  std::vector<float> row_sum(static_cast<std::size_t>(nq), 0.0f);
  std::vector<float> scores(
      static_cast<std::size_t>(params.block_q * params.block_kv));
  for (std::int64_t q0 = 0; q0 < nq; q0 += params.block_q) {
    const std::int64_t q1 = std::min(nq, q0 + params.block_q);
    for (std::int64_t k0 = 0; k0 < nk; k0 += params.block_kv) {
      const std::int64_t k1 = std::min(nk, k0 + params.block_kv);
      const std::int64_t bk = k1 - k0;
      for (std::int64_t i = q0; i < q1; ++i) {
        const float* qrow = pq + i * d;
        float* srow = scores.data() + (i - q0) * params.block_kv;
        for (std::int64_t j = 0; j < bk; ++j) {
          const float* krow = pk + (k0 + j) * d;
          double acc = 0.0;
          for (std::int64_t t = 0; t < d; ++t) {
            acc += static_cast<double>(qrow[t]) * krow[t];
          }
          srow[j] = static_cast<float>(acc) * scale;
        }
      }
      for (std::int64_t i = q0; i < q1; ++i) {
        float* srow = scores.data() + (i - q0) * params.block_kv;
        float block_max = srow[0];
        for (std::int64_t j = 1; j < bk; ++j) {
          block_max = std::max(block_max, srow[j]);
        }
        const float old_max = row_max[static_cast<std::size_t>(i)];
        const float new_max = std::max(old_max, block_max);
        const float correction =
            (old_max == -std::numeric_limits<float>::infinity())
                ? 0.0f
                : std::exp(old_max - new_max);
        float* orow = po + i * dv;
        for (std::int64_t t = 0; t < dv; ++t) orow[t] *= correction;
        row_sum[static_cast<std::size_t>(i)] *= correction;
        for (std::int64_t j = 0; j < bk; ++j) {
          const float p = std::exp(srow[j] - new_max);
          row_sum[static_cast<std::size_t>(i)] += p;
          const float* vrow = pv + (k0 + j) * dv;
          for (std::int64_t t = 0; t < dv; ++t) orow[t] += p * vrow[t];
        }
        row_max[static_cast<std::size_t>(i)] = new_max;
      }
    }
  }
  for (std::int64_t i = 0; i < nq; ++i) {
    const float inv = 1.0f / row_sum[static_cast<std::size_t>(i)];
    float* orow = po + i * dv;
    for (std::int64_t t = 0; t < dv; ++t) orow[t] *= inv;
  }
  return output;
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

struct Record {
  std::string bench;    // e.g. "gemm_nn"
  std::string shape;    // e.g. "square:1024x1024x1024"
  std::string variant;  // "legacy_serial" or "kernels"
  std::size_t threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double checksum = 0.0;  // sum of output elements; sanity, not bit-exactness
  double ns_per_element = 0.0;  // elementwise rows only; emitted when set
};

/// One conv shape with its operands: input [cin, h, w], 3x3 weight, bias
/// and a grad_output for the backward.
struct ConvCase {
  std::int64_t cin, cout, h, w;
  Tensor input, weight, bias, grad_out;
};

/// Reslim's residual-path convs in one train_tiles tile: 2 -> 2 at the 48x80
/// output tile, 8 -> 8 and 8 -> 2 at the 12x20 input tile.
std::vector<ConvCase> reslim_conv_cases(Rng& rng) {
  std::vector<ConvCase> cases;
  for (const auto& [cin, cout, h, w] :
       {std::array<std::int64_t, 4>{2, 2, 48, 80},
        std::array<std::int64_t, 4>{8, 8, 12, 20},
        std::array<std::int64_t, 4>{8, 2, 12, 20}}) {
    cases.push_back({cin, cout, h, w, Tensor::randn(Shape{cin, h, w}, rng),
                     Tensor::randn(Shape{cout, cin, 3, 3}, rng),
                     Tensor::randn(Shape{cout}, rng),
                     Tensor::randn(Shape{cout, h, w}, rng)});
  }
  return cases;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-`reps` wall time of fn(); fn returns a checksum so the work cannot
// be optimized away. Cases slower than a second stop after one rep to bound
// total harness runtime.
template <typename Fn>
Record time_case(const std::string& bench, const std::string& shape,
                 const std::string& variant, std::size_t threads, int reps,
                 double flops, Fn&& fn) {
  Record rec;
  rec.bench = bench;
  rec.shape = shape;
  rec.variant = variant;
  rec.threads = threads;
  rec.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    rec.checksum = fn();
    const double t1 = now_seconds();
    rec.seconds = std::min(rec.seconds, t1 - t0);
    if (t1 - t0 > 1.0) break;
  }
  rec.gflops = rec.seconds > 0.0 ? flops / rec.seconds * 1e-9 : 0.0;
  return rec;
}

double tensor_checksum(const Tensor& t) {
  double acc = 0.0;
  for (const float v : t.data()) acc += static_cast<double>(v);
  return acc;
}

double buffer_checksum(const std::vector<float>& buf) {
  double acc = 0.0;
  for (const float v : buf) acc += static_cast<double>(v);
  return acc;
}

void emit_json(const std::vector<Record>& records) {
  std::printf("[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::printf(
        "  {\"bench\": \"%s\", \"shape\": \"%s\", \"variant\": \"%s\", "
        "\"threads\": %zu, \"seconds\": %.6f, \"gflops\": %.3f, "
        "\"checksum\": %.6g",
        r.bench.c_str(), r.shape.c_str(), r.variant.c_str(), r.threads,
        r.seconds, r.gflops, r.checksum);
    if (r.ns_per_element > 0.0) {
      std::printf(", \"ns_per_element\": %.3f", r.ns_per_element);
    }
    std::printf("}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::printf("]\n");
}

struct GemmShape {
  const char* tag;  // provenance of the shape
  std::int64_t m, n, k;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::size_t threads = 4;
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--reps N] [--threads N] [--quick] "
                   "[--trace PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty()) orbit2::obs::set_enabled(true);

  Rng rng(1234);
  std::vector<Record> records;
  const std::size_t kSerial = 1;

  // --- GEMM: square scaling points plus Reslim/ViT-shaped rectangles. ---
  std::vector<GemmShape> gemm_shapes = {
      {"square", 256, 256, 256},
      {"square", 512, 512, 512},
      {"vit_mlp", 1024, 1024, 256},         // tokens x hidden x embed
      {"reslim_proj", 4096, 128, 128},      // 64x64 token grid projection
      {"reslim_patchify", 1024, 192, 576},  // tokens x embed x (C*ps*ps)
  };
  if (!quick) gemm_shapes.push_back({"square", 1024, 1024, 1024});

  for (const GemmShape& s : gemm_shapes) {
    const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "%s:%lldx%lldx%lld", s.tag,
                  static_cast<long long>(s.m), static_cast<long long>(s.n),
                  static_cast<long long>(s.k));
    std::vector<float> out(static_cast<std::size_t>(s.m * s.n));
    records.push_back(
        time_case("gemm_nn", shape, "legacy_serial", kSerial, reps, flops, [&] {
          std::fill(out.begin(), out.end(), 0.0f);
          legacy_gemm_nn(out.data(), a.data().data(), b.data().data(), s.m, s.n,
                         s.k);
          return buffer_checksum(out);
        }));
    for (const std::size_t t : {kSerial, threads}) {
      orbit2::kernels::set_max_threads(t);
      records.push_back(time_case("gemm_nn", shape, "kernels", t, reps, flops,
                                  [&] {
                                    const Tensor c = orbit2::matmul(a, b);
                                    return tensor_checksum(c);
                                  }));
    }
    orbit2::kernels::set_max_threads(0);
  }

  // --- GEMM transpose variants at one mid-size shape. ---
  {
    const std::int64_t m = 512, n = 512, k = 512;
    const double flops = 2.0 * 512.0 * 512.0 * 512.0;
    const Tensor a = Tensor::randn(Shape{m, k}, rng);
    const Tensor bt = Tensor::randn(Shape{n, k}, rng);  // for NT
    const Tensor at = Tensor::randn(Shape{k, m}, rng);  // for TN
    const Tensor b = Tensor::randn(Shape{k, n}, rng);
    std::vector<float> out(static_cast<std::size_t>(m * n));
    records.push_back(time_case("gemm_nt", "512x512x512", "legacy_serial",
                                kSerial, reps, flops, [&] {
                                  legacy_gemm_nt(out.data(), a.data().data(),
                                                 bt.data().data(), m, n, k);
                                  return buffer_checksum(out);
                                }));
    records.push_back(time_case("gemm_tn", "512x512x512", "legacy_serial",
                                kSerial, reps, flops, [&] {
                                  std::fill(out.begin(), out.end(), 0.0f);
                                  legacy_gemm_tn(out.data(), at.data().data(),
                                                 b.data().data(), m, n, k);
                                  return buffer_checksum(out);
                                }));
    for (const std::size_t t : {kSerial, threads}) {
      orbit2::kernels::set_max_threads(t);
      records.push_back(time_case("gemm_nt", "512x512x512", "kernels", t, reps,
                                  flops, [&] {
                                    const Tensor c = orbit2::matmul_nt(a, bt);
                                    return tensor_checksum(c);
                                  }));
      records.push_back(time_case("gemm_tn", "512x512x512", "kernels", t, reps,
                                  flops, [&] {
                                    const Tensor c = orbit2::matmul_tn(at, b);
                                    return tensor_checksum(c);
                                  }));
    }
    orbit2::kernels::set_max_threads(0);
  }

  // --- Attention: sequence-length sweep, flash + naive forward. ---
  {
    const std::int64_t d = 32;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    std::vector<std::int64_t> seqs = {128, 512};
    if (!quick) seqs.push_back(2048);
    for (const std::int64_t seq : seqs) {
      const Tensor q = Tensor::randn(Shape{seq, d}, rng);
      const Tensor k = Tensor::randn(Shape{seq, d}, rng);
      const Tensor v = Tensor::randn(Shape{seq, d}, rng);
      // Scores and the weighted sum are each 2*seq^2*d flops.
      const double flops = 4.0 * static_cast<double>(seq) *
                           static_cast<double>(seq) * static_cast<double>(d);
      const std::string shape = std::to_string(seq) + "x" + std::to_string(d);
      const FlashParams params;
      records.push_back(time_case(
          "attention_flash_fwd", shape, "legacy_serial", kSerial, reps, flops,
          [&] {
            const Tensor o = legacy_flash_forward(q, k, v, scale, params);
            return tensor_checksum(o);
          }));
      for (const std::size_t t : {kSerial, threads}) {
        orbit2::kernels::set_max_threads(t);
        records.push_back(time_case(
            "attention_flash_fwd", shape, "kernels", t, reps, flops, [&] {
              const Tensor o = orbit2::attention_flash_forward(
                  q, k, v, scale, nullptr, params);
              return tensor_checksum(o);
            }));
        records.push_back(time_case(
            "attention_naive_fwd", shape, "kernels", t, reps, flops, [&] {
              const Tensor o =
                  orbit2::attention_naive_forward(q, k, v, scale, nullptr);
              return tensor_checksum(o);
            }));
      }
      orbit2::kernels::set_max_threads(0);
    }
  }

  // --- Conv2d forward: Reslim-style 3x3 stems. ---
  {
    const std::int64_t cin = 8, cout = 16;
    for (const std::int64_t n : {std::int64_t{64}, std::int64_t{128}}) {
      const Tensor input = Tensor::randn(Shape{cin, n, n}, rng);
      const Tensor weight = Tensor::randn(Shape{cout, cin, 3, 3}, rng);
      const Tensor bias = Tensor::randn(Shape{cout}, rng);
      const Conv2dSpec spec{3, 3, 1, 1};
      const double flops = 2.0 * static_cast<double>(cout * cin * 9) *
                           static_cast<double>(n) * static_cast<double>(n);
      const std::string shape = std::to_string(cin) + "x" + std::to_string(n) +
                                "x" + std::to_string(n) + "->" +
                                std::to_string(cout);
      records.push_back(time_case(
          "conv2d_fwd", shape, "legacy_serial", kSerial, reps, flops, [&] {
            const Tensor o = legacy_conv2d_forward(input, weight, bias, spec);
            return tensor_checksum(o);
          }));
      for (const std::size_t t : {kSerial, threads}) {
        orbit2::kernels::set_max_threads(t);
        records.push_back(time_case(
            "conv2d_fwd", shape, "kernels", t, reps, flops, [&] {
              const Tensor o = orbit2::conv2d_forward(input, weight, bias, spec);
              return tensor_checksum(o);
            }));
      }
      orbit2::kernels::set_max_threads(0);
    }
  }

  // --- Conv2d forward and backward_params at Reslim's shapes. ---
  const std::vector<ConvCase> conv_cases = reslim_conv_cases(rng);
  const auto conv_rows = [&](const std::string& variant, std::size_t t) {
    const Conv2dSpec spec{3, 3, 1, 1};
    for (const ConvCase& c : conv_cases) {
      const double flops = 2.0 * static_cast<double>(c.cout * c.cin * 9) *
                           static_cast<double>(c.h * c.w);
      const std::string shape = std::to_string(c.cin) + "x" +
                                std::to_string(c.h) + "x" +
                                std::to_string(c.w) + "->" +
                                std::to_string(c.cout);
      records.push_back(
          time_case("conv2d_fwd", shape, variant, t, reps, flops, [&] {
            const Tensor o =
                orbit2::conv2d_forward(c.input, c.weight, c.bias, spec);
            return tensor_checksum(o);
          }));
      Tensor grad_weight(c.weight.shape());
      Tensor grad_bias(c.bias.shape());
      records.push_back(
          time_case("conv2d_bwd_params", shape, variant, t, reps, flops, [&] {
            grad_weight.fill(0.0f);
            grad_bias.fill(0.0f);
            orbit2::conv2d_backward_params(c.grad_out, c.input, grad_weight,
                                           grad_bias, spec);
            return tensor_checksum(grad_weight);
          }));
    }
  };
  for (const std::size_t t : {kSerial, threads}) {
    orbit2::kernels::set_max_threads(t);
    conv_rows("kernels", t);
  }
  orbit2::kernels::set_max_threads(0);

  // --- 2-D FFTs at the data pipeline's 64x128 grid and a Bluestein grid,
  // and one spectrally shaped random field (an fft2d + ifft2d pair plus the
  // noise, filter and normalization around it). FFT rows count the nominal
  // 5 N log2 N flops of an N-point complex transform; the GRF row counts
  // elements and reports ns_per_element. ---
  struct FftCase {
    std::int64_t h, w;
    Tensor field;
    std::vector<orbit2::Complex> spectrum;
  };
  std::vector<FftCase> fft_cases;
  for (const auto& [h, w] : {std::array<std::int64_t, 2>{64, 128},
                             std::array<std::int64_t, 2>{30, 45}}) {
    Tensor field = Tensor::randn(Shape{h, w}, rng);
    std::vector<orbit2::Complex> spectrum = orbit2::fft2d(field);
    fft_cases.push_back({h, w, std::move(field), std::move(spectrum)});
  }
  const auto fft_rows = [&](const std::string& variant, std::size_t t) {
    for (const FftCase& c : fft_cases) {
      const double n = static_cast<double>(c.h * c.w);
      const double flops = 5.0 * n * std::log2(n);
      const std::string shape = std::to_string(c.h) + "x" + std::to_string(c.w);
      records.push_back(time_case("fft2d", shape, variant, t, reps, flops, [&] {
        const std::vector<orbit2::Complex> f = orbit2::fft2d(c.field);
        return f[1].real();
      }));
      std::vector<orbit2::Complex> work;
      records.push_back(
          time_case("ifft2d", shape, variant, t, reps, flops, [&] {
            work = c.spectrum;
            orbit2::ifft2d(work, c.h, c.w);
            return work[1].real();
          }));
    }
    const std::int64_t gh = 64, gw = 128;
    Record grf = time_case(
        "gaussian_random_field", "64x128", variant, t, reps,
        static_cast<double>(gh * gw), [&] {
          Rng field_rng(7);
          const Tensor f =
              orbit2::data::gaussian_random_field(gh, gw, 2.0f, field_rng);
          return tensor_checksum(f);
        });
    grf.ns_per_element = grf.seconds * 1e9 / static_cast<double>(gh * gw);
    records.push_back(grf);
  };
  for (const std::size_t t : {kSerial, threads}) {
    orbit2::kernels::set_max_threads(t);
    fft_rows("kernels", t);
  }
  orbit2::kernels::set_max_threads(0);

  // --- SIMD ISA sweep: the same kernels under every supported backend. ---
  // Serial threads isolate the microkernel effect from pool scaling; the
  // results are bit-identical across backends (the determinism contract),
  // so only the wall time moves.
  {
    const orbit2::simd::Isa saved_isa = orbit2::simd::active_isa();
    // GEMM shapes, labelled MxNxK: a square compute-bound case, then
    // Reslim-tiny's trunk matmuls at 20x36 (720 tokens, embed 32, MLP 128).
    struct GemmCase {
      std::int64_t m, n, k;
      Tensor a, b;
    };
    std::vector<GemmCase> gemm_cases;
    for (const auto& [m, n, k] :
         {std::array<std::int64_t, 3>{512, 512, 512},
          std::array<std::int64_t, 3>{720, 32, 32},
          std::array<std::int64_t, 3>{720, 32, 128}}) {
      gemm_cases.push_back({m, n, k, Tensor::randn(Shape{m, k}, rng),
                            Tensor::randn(Shape{k, n}, rng)});
    }
    const std::int64_t stream_n = quick ? (1 << 20) : (1 << 22);
    const Tensor sx = Tensor::randn(Shape{stream_n}, rng);
    Tensor sy = Tensor::randn(Shape{stream_n}, rng);
    const double stream_flops = 2.0 * static_cast<double>(stream_n);
    // The GELU primitives over one 20x36 tile's MLP hidden activation (720
    // tokens x 128), into a reused buffer; "gflops" counts elements, and
    // ns_per_element is the cost of one.
    const std::int64_t gelu_n = 720 * 128;
    const Tensor gelu_x = Tensor::randn(Shape{gelu_n}, rng, 2.0f);
    const Tensor gelu_gy = Tensor::randn(Shape{gelu_n}, rng);
    std::vector<float> gelu_out(static_cast<std::size_t>(gelu_n));
    const auto elementwise_case = [&](const char* bench, const std::string&
                                          variant, auto&& fn) {
      Record rec = time_case(bench, "n=" + std::to_string(gelu_n), variant,
                             kSerial, reps, static_cast<double>(gelu_n), fn);
      rec.ns_per_element = rec.seconds * 1e9 / static_cast<double>(gelu_n);
      return rec;
    };
    orbit2::kernels::set_max_threads(1);
    for (const orbit2::simd::Isa isa : orbit2::simd::supported_isas()) {
      orbit2::simd::set_isa(isa);
      const std::string variant =
          std::string("simd_") + orbit2::simd::isa_name(isa);
      for (const GemmCase& g : gemm_cases) {
        const std::string shape = std::to_string(g.m) + "x" +
                                  std::to_string(g.n) + "x" +
                                  std::to_string(g.k);
        const double gemm_flops = 2.0 * static_cast<double>(g.m) *
                                  static_cast<double>(g.n) *
                                  static_cast<double>(g.k);
        records.push_back(time_case("gemm_nn", shape, variant, kSerial, reps,
                                    gemm_flops, [&] {
                                      const Tensor c = orbit2::matmul(g.a, g.b);
                                      return tensor_checksum(c);
                                    }));
      }
      records.push_back(time_case(
          "axpy_stream", "n=" + std::to_string(stream_n), variant, kSerial,
          reps, stream_flops, [&] {
            sy.axpy_inplace(0.25f, sx);
            return static_cast<double>(sy.data()[0]);
          }));
      records.push_back(time_case(
          "bf16_round_stream", "n=" + std::to_string(stream_n), variant,
          kSerial, reps, static_cast<double>(stream_n), [&] {
            Tensor t = sx.clone();
            t.round_to_bf16_inplace();
            return static_cast<double>(t.data()[0]);
          }));
      records.push_back(elementwise_case("gelu_f32", variant, [&] {
        orbit2::simd::ops().gelu_f32(gelu_out.data(), gelu_x.data().data(),
                                     gelu_n);
        return buffer_checksum(gelu_out);
      }));
      records.push_back(elementwise_case("gelu_grad_f32", variant, [&] {
        orbit2::simd::ops().gelu_grad_f32(gelu_out.data(),
                                          gelu_gy.data().data(),
                                          gelu_x.data().data(), gelu_n);
        return buffer_checksum(gelu_out);
      }));
      conv_rows(variant, kSerial);
      fft_rows(variant, kSerial);
    }
    orbit2::kernels::set_max_threads(0);
    orbit2::simd::set_isa(saved_isa);
  }

  emit_json(records);
  if (!trace_path.empty()) {
    orbit2::obs::set_enabled(false);
    orbit2::obs::write_chrome_trace(trace_path);
    std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
