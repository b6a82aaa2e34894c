// Known-bad fixture: libm's tanh and exp outside src/core/simd/. The simd
// tier ports fdlibm's tanhf and glibc's expf bit for bit, so GELU's and
// softmax's results (and every golden built on them) do not depend on the
// host's libm; a direct call brings that dependence back. Every spelling
// counts: std::tanh, the C float and long double names, and a ::-qualified
// call.

#include <cmath>

float gelu(float x) {
  const float inner = 0.7978845608f * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));  // EXPECT: pinned-libm
}

float gelu_c(float x) {
  return 0.5f * x * (1.0f + tanhf(0.7978845608f * x));  // EXPECT: pinned-libm
}

double squash(double x) { return ::tanh(x); }  // EXPECT: pinned-libm

long double squash_l(long double x) { return tanhl(x); }  // EXPECT: pinned-libm

float (*const kActivation)(float) = std::tanh;  // EXPECT: pinned-libm

float softmax_weight(float score, float row_max) {
  return std::exp(score - row_max);  // EXPECT: pinned-libm
}

float rain(float wet) { return expf(wet) - 1.0f; }  // EXPECT: pinned-libm

double taper(double r) { return ::exp(-r * r); }  // EXPECT: pinned-libm

long double growth_l(long double t) { return expl(t); }  // EXPECT: pinned-libm
