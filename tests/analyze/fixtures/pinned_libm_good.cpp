// Known-good twin of pinned_libm_bad.cpp: GELU and exp through the
// dispatched simd table, whose tanh and exp are the pinned ports (stubbed
// here so the fixture parses standalone). Names that merely contain "tanh"
// or "exp" (expm1, exp2, exp_f32, a member exp) and the words in comments
// and strings are not libm calls of a pinned function: orbit2_analyze must
// report nothing in this file. std::tanh(x) and std::exp(x) here are
// comments.

namespace simd {
struct Ops {
  void (*gelu_f32)(float* y, const float* x, long long n);
  void (*exp_f32)(float* y, const float* x, long long n);
};
const Ops& ops();
float tanh_ref(float x);
float exp_ref(float x);
}  // namespace simd

struct Growth {
  float (*exp)(float t);
};

void gelu_rows(float* y, const float* x, long long n) {
  simd::ops().gelu_f32(y, x, n);
}

float squash(float x) {
  const char* name = "std::tanh(x)";
  (void)name;
  return simd::tanh_ref(x);
}

void softmax_numerators(float* p, long long n) { simd::ops().exp_f32(p, p, n); }

float near_one(float x, const Growth& g) {
  const char* name = "std::exp(x)";
  (void)name;
  return simd::exp_ref(x) + g.exp(x);
}
