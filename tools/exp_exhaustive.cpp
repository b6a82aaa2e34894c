// Exhaustive check of the pinned exp: exp_ref and every simd::Ops table the
// host supports against the host libm's std::exp(float), on all 2^32 float
// bit patterns, a NaN matching any NaN. On a host whose glibc takes expf's
// FMA path (x86-64 with FMA) every count must be 0; elsewhere the port, not
// libm, defines the bits, and the mismatches show where they part.
//
// Usage: orbit2_exp_exhaustive
// Runs on the kernel pool (ORBIT2_NUM_THREADS caps it); about 40 s on 4
// threads of an AVX-512 host, most of it in libm's expf and in the scalar
// reference's std::fma calls. Exits 1 on any mismatch.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/kernels.hpp"
#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace {

using orbit2::simd::Isa;

constexpr std::int64_t kChunk = std::int64_t{1} << 16;
constexpr std::int64_t kChunks = (std::int64_t{1} << 32) / kChunk;

bool same(float got, float want) {
  return std::bit_cast<std::uint32_t>(got) ==
             std::bit_cast<std::uint32_t>(want) ||
         (std::isnan(got) && std::isnan(want));
}

}  // namespace

int main() {
  const std::vector<Isa> isas = orbit2::simd::supported_isas();
  // Column 0 counts exp_ref, column 1 + t the table of isas[t]; one row per
  // chunk, so no two chunks share a counter.
  const std::size_t cols = isas.size() + 1;
  std::vector<std::int64_t> bad(static_cast<std::size_t>(kChunks) * cols, 0);
  std::vector<const orbit2::simd::Ops*> tables;
  for (const Isa isa : isas) {
    orbit2::simd::set_isa(isa);
    tables.push_back(&orbit2::simd::ops());
  }

  orbit2::kernels::parallel_for(kChunks, 1, [&](std::int64_t c0,
                                                std::int64_t c1) {
    std::vector<float> x(static_cast<std::size_t>(kChunk));
    std::vector<float> want(x.size());
    std::vector<float> got(x.size());
    for (std::int64_t c = c0; c < c1; ++c) {
      std::int64_t* row = bad.data() + c * static_cast<std::int64_t>(cols);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = std::bit_cast<float>(
            static_cast<std::uint32_t>(c * kChunk + static_cast<std::int64_t>(i)));
        want[i] = std::exp(x[i]);
        if (!same(orbit2::simd::detail::exp_ref(x[i]), want[i])) ++row[0];
      }
      for (std::size_t t = 0; t < tables.size(); ++t) {
        tables[t]->exp_f32(got.data(), x.data(),
                           static_cast<std::int64_t>(x.size()));
        for (std::size_t i = 0; i < x.size(); ++i) {
          if (!same(got[i], want[i])) ++row[t + 1];
        }
      }
    }
  });

  bool ok = true;
  for (std::size_t col = 0; col < cols; ++col) {
    std::int64_t total = 0;
    for (std::int64_t c = 0; c < kChunks; ++c) {
      total += bad[static_cast<std::size_t>(c) * cols + col];
    }
    const char* name =
        col == 0 ? "exp_ref" : orbit2::simd::isa_name(isas[col - 1]);
    std::printf("%-8s %lld mismatches of 2^32\n", name,
                static_cast<long long>(total));
    ok = ok && total == 0;
  }
  return ok ? 0 : 1;
}
