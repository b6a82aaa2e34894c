// Scalar fallback table: every primitive is the reference implementation.
// Always available; the dispatch layer guarantees supported_isas() contains
// it on every host.

#include "core/simd/scalar_ref.hpp"
#include "core/simd/simd.hpp"

namespace orbit2::simd::detail {

const Ops* scalar_ops() {
  static const Ops table = {
      Isa::kScalar,
      scalar_gemm_tile_f64,
      scalar_axpy_f32,
      scalar_axpy_rows_f32,
      scalar_scale_f32,
      scalar_add_f32,
      scalar_sub_f32,
      scalar_rsub_f32,
      scalar_mul_f32,
      scalar_max_f32,
      scalar_bf16_round_f32,
      scalar_fft_butterfly_lanes_f64,
      scalar_gelu_f32,
      scalar_gelu_grad_f32,
      scalar_exp_f32,
  };
  return &table;
}

}  // namespace orbit2::simd::detail
