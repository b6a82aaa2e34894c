// Known-good twin of pinned_libm_bad.cpp: GELU through the dispatched simd
// table, whose tanh is the pinned fdlibm port (stubbed here so the fixture
// parses standalone). Names that merely contain "tanh" and the word in
// comments and strings are not libm calls: orbit2_analyze must report
// nothing in this file. std::tanh(x) here is a comment.

namespace simd {
struct Ops {
  void (*gelu_f32)(float* y, const float* x, long long n);
};
const Ops& ops();
float tanh_ref(float x);
}  // namespace simd

void gelu_rows(float* y, const float* x, long long n) {
  simd::ops().gelu_f32(y, x, n);
}

float squash(float x) {
  const char* name = "std::tanh(x)";
  (void)name;
  return simd::tanh_ref(x);
}
