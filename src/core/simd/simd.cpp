// Runtime ISA detection and dispatch for the SIMD microkernel tier.
//
// Resolution order, applied once on first ops() call:
//   1. ORBIT2_SIMD env override ("scalar"|"avx2"|"avx512"|"neon",
//      full-string match). A recognized but host-unsupported value warns
//      and falls back to scalar; an unrecognized value warns and
//      auto-detects.
//   2. Auto-detect: best of AVX-512 > AVX2 > NEON > scalar.
//
// Vector tables exist only when the build compiled them (the
// ORBIT2_SIMD_HAVE_* definitions from src/core/CMakeLists.txt); runtime
// cpuid gates them again so a binary built with -mavx512f panels still
// runs on an AVX2-only machine.

#include "core/simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/error.hpp"
#include "core/log.hpp"

namespace orbit2::simd {

namespace detail {
const Ops* scalar_ops();
#if defined(ORBIT2_SIMD_HAVE_AVX2)
const Ops* avx2_ops();
#endif
#if defined(ORBIT2_SIMD_HAVE_AVX512)
const Ops* avx512_ops();
#endif
#if defined(ORBIT2_SIMD_HAVE_NEON)
const Ops* neon_ops();
#endif
}  // namespace detail

namespace {

std::atomic<const Ops*> g_active{nullptr};

std::mutex& dispatch_mutex() {
  static std::mutex m;
  return m;
}

const Ops* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_ops();
    case Isa::kAvx2:
#if defined(ORBIT2_SIMD_HAVE_AVX2)
      return detail::avx2_ops();
#else
      break;
#endif
    case Isa::kAvx512:
#if defined(ORBIT2_SIMD_HAVE_AVX512)
      return detail::avx512_ops();
#else
      break;
#endif
    case Isa::kNeon:
#if defined(ORBIT2_SIMD_HAVE_NEON)
      return detail::neon_ops();
#else
      break;
#endif
  }
  return detail::scalar_ops();
}

Isa detect_best() {
  Isa best = Isa::kScalar;
  for (const Isa isa : {Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_supported(isa)) best = isa;
  }
  return best;
}

// Resolves the initial ISA under dispatch_mutex(); returns the table.
const Ops* resolve_locked() {
  Isa chosen = Isa::kScalar;
  bool from_env = false;
  if (const char* env = std::getenv("ORBIT2_SIMD")) {
    Isa requested = Isa::kScalar;
    if (!parse_isa_name(env, &requested)) {
      ORBIT2_LOG_WARN("ORBIT2_SIMD=\"" << env
                                       << "\" is not one of "
                                          "scalar|avx2|avx512|neon; "
                                          "auto-detecting");
      chosen = detect_best();
    } else if (!isa_supported(requested)) {
      ORBIT2_LOG_WARN("ORBIT2_SIMD=" << isa_name(requested)
                                     << " is not supported on this host; "
                                        "falling back to scalar");
      chosen = Isa::kScalar;
      from_env = true;
    } else {
      chosen = requested;
      from_env = true;
    }
  } else {
    chosen = detect_best();
  }
  const Ops* table = table_for(chosen);
  ORBIT2_LOG_DEBUG("simd dispatch: " << isa_name(table->isa)
                                     << (from_env ? " (ORBIT2_SIMD)"
                                                  : " (auto-detected)"));
  return table;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

bool parse_isa_name(const char* text, Isa* out) {
  if (text == nullptr || out == nullptr) return false;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    if (std::strcmp(text, isa_name(isa)) == 0) {
      *out = isa;
      return true;
    }
  }
  return false;
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(ORBIT2_SIMD_HAVE_AVX2)
      // The AVX2 TU's exp uses FMA instructions.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(ORBIT2_SIMD_HAVE_AVX512)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(ORBIT2_SIMD_HAVE_NEON)
      // NEON is baseline on aarch64; the build gate is the runtime gate.
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> result;
  for (const Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_supported(isa)) result.push_back(isa);
  }
  return result;
}

const Ops& ops() {
  const Ops* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    const std::lock_guard<std::mutex> lock(dispatch_mutex());
    table = g_active.load(std::memory_order_relaxed);
    if (table == nullptr) {
      table = resolve_locked();
      g_active.store(table, std::memory_order_release);
    }
  }
  return *table;
}

Isa active_isa() { return ops().isa; }

void set_isa(Isa isa) {
  ORBIT2_REQUIRE(isa_supported(isa),
                 "simd::set_isa: " << isa_name(isa)
                                   << " is not supported on this host");
  const std::lock_guard<std::mutex> lock(dispatch_mutex());
  g_active.store(table_for(isa), std::memory_order_release);
}

}  // namespace orbit2::simd
