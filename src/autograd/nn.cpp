#include "autograd/nn.hpp"

#include <cmath>

namespace orbit2::autograd {

ParamPtr make_param(std::string name, Shape shape, Rng& rng, float stddev) {
  return std::make_shared<Parameter>(std::move(name),
                                     Tensor::randn(shape, rng, stddev));
}

ParamPtr make_const_param(std::string name, Shape shape, float value) {
  return std::make_shared<Parameter>(std::move(name),
                                     Tensor::full(shape, value));
}

// ---- Linear ----------------------------------------------------------

Linear::Linear(std::string name, std::int64_t in_features,
               std::int64_t out_features, Rng& rng)
    : weight_(make_param(name + ".weight", Shape{in_features, out_features},
                         rng,
                         // Xavier-ish scale keeps activations O(1).
                         1.0f / std::sqrt(static_cast<float>(in_features)))),
      bias_(make_const_param(name + ".bias", Shape{out_features}, 0.0f)) {}

Var Linear::forward(const Var& x) const {
  return linear(x, Var::parameter(weight_), Var::parameter(bias_));
}

void Linear::collect_parameters(std::vector<ParamPtr>& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

// ---- LayerNorm -------------------------------------------------------

LayerNorm::LayerNorm(std::string name, std::int64_t dim)
    : gamma_(make_const_param(name + ".gamma", Shape{dim}, 1.0f)),
      beta_(make_const_param(name + ".beta", Shape{dim}, 0.0f)) {}

Var LayerNorm::forward(const Var& x) const {
  return layernorm(x, Var::parameter(gamma_), Var::parameter(beta_), epsilon_);
}

void LayerNorm::collect_parameters(std::vector<ParamPtr>& out) const {
  out.push_back(gamma_);
  out.push_back(beta_);
}

// ---- Mlp -------------------------------------------------------------

Mlp::Mlp(std::string name, std::int64_t dim, std::int64_t hidden, Rng& rng)
    : fc1_(name + ".fc1", dim, hidden, rng),
      fc2_(name + ".fc2", hidden, dim, rng) {}

Var Mlp::forward(const Var& x) const {
  return fc2_.forward(gelu(fc1_.forward(x)));
}

void Mlp::collect_parameters(std::vector<ParamPtr>& out) const {
  fc1_.collect_parameters(out);
  fc2_.collect_parameters(out);
}

// ---- MultiHeadSelfAttention -------------------------------------------

MultiHeadSelfAttention::MultiHeadSelfAttention(std::string name,
                                               std::int64_t dim,
                                               std::int64_t heads, Rng& rng)
    : heads_(heads) {
  ORBIT2_REQUIRE(dim % heads == 0,
                 "attention dim " << dim << " not divisible by " << heads);
  const float std = 1.0f / std::sqrt(static_cast<float>(dim));
  wq_ = make_param(name + ".wq", Shape{dim, dim}, rng, std);
  wk_ = make_param(name + ".wk", Shape{dim, dim}, rng, std);
  wv_ = make_param(name + ".wv", Shape{dim, dim}, rng, std);
  wo_ = make_param(name + ".wo", Shape{dim, dim}, rng, std);
  bq_ = make_const_param(name + ".bq", Shape{dim}, 0.0f);
  bk_ = make_const_param(name + ".bk", Shape{dim}, 0.0f);
  bv_ = make_const_param(name + ".bv", Shape{dim}, 0.0f);
  bo_ = make_const_param(name + ".bo", Shape{dim}, 0.0f);
}

Var MultiHeadSelfAttention::forward(const Var& x, bool use_flash,
                                    const Tensor* partition) const {
  MhaWeights weights{Var::parameter(wq_), Var::parameter(wk_),
                     Var::parameter(wv_), Var::parameter(wo_),
                     Var::parameter(bq_), Var::parameter(bk_),
                     Var::parameter(bv_), Var::parameter(bo_)};
  return multihead_self_attention(x, weights, heads_, use_flash, partition);
}

Var MultiHeadSelfAttention::forward_windowed(
    const Var& x, bool use_flash, const WindowAttentionSpec& spec) const {
  ORBIT2_REQUIRE(x.value().dim(0) == spec.grid_h * spec.grid_w,
                 "token count " << x.value().dim(0) << " vs grid "
                                << spec.grid_h * spec.grid_w);
  MhaWeights weights{Var::parameter(wq_), Var::parameter(wk_),
                     Var::parameter(wv_), Var::parameter(wo_),
                     Var::parameter(bq_), Var::parameter(bk_),
                     Var::parameter(bv_), Var::parameter(bo_)};
  Var tokens = x;
  if (spec.shift != 0) {
    tokens = permute_rows(tokens, cyclic_shift_permutation(
                                      spec.grid_h, spec.grid_w, -spec.shift,
                                      -spec.shift));
  }
  const auto partition = window_partition_permutation(spec);
  tokens = permute_rows(tokens, partition);

  const std::int64_t per_window = spec.window * spec.window;
  const std::int64_t windows = (spec.grid_h / spec.window) *
                               (spec.grid_w / spec.window);
  std::vector<Var> outputs;
  outputs.reserve(static_cast<std::size_t>(windows));
  for (std::int64_t window = 0; window < windows; ++window) {
    outputs.push_back(multihead_self_attention(
        slice_rows(tokens, window * per_window, per_window), weights, heads_,
        use_flash));
  }
  Var merged = concat_rows(outputs);
  merged = permute_rows(merged, invert_permutation(partition));
  if (spec.shift != 0) {
    merged = permute_rows(merged, cyclic_shift_permutation(
                                      spec.grid_h, spec.grid_w, spec.shift,
                                      spec.shift));
  }
  return merged;
}

void MultiHeadSelfAttention::collect_parameters(
    std::vector<ParamPtr>& out) const {
  out.insert(out.end(), {wq_, wk_, wv_, wo_, bq_, bk_, bv_, bo_});
}

// ---- TransformerBlock ---------------------------------------------------

TransformerBlock::TransformerBlock(std::string name, std::int64_t dim,
                                   std::int64_t heads, std::int64_t mlp_hidden,
                                   Rng& rng)
    : norm1_(name + ".norm1", dim),
      attention_(name + ".attn", dim, heads, rng),
      norm2_(name + ".norm2", dim),
      mlp_(name + ".mlp", dim, mlp_hidden, rng) {}

Var TransformerBlock::forward(const Var& x, bool use_flash,
                              const Tensor* partition) const {
  Var h = add(x, attention_.forward(norm1_.forward(x), use_flash, partition));
  return add(h, mlp_.forward(norm2_.forward(h)));
}

Var TransformerBlock::forward_windowed(const Var& x, bool use_flash,
                                       const WindowAttentionSpec& spec) const {
  Var h = add(x, attention_.forward_windowed(norm1_.forward(x), use_flash,
                                             spec));
  return add(h, mlp_.forward(norm2_.forward(h)));
}

void TransformerBlock::collect_parameters(std::vector<ParamPtr>& out) const {
  norm1_.collect_parameters(out);
  attention_.collect_parameters(out);
  norm2_.collect_parameters(out);
  mlp_.collect_parameters(out);
}

// ---- Conv2dLayer --------------------------------------------------------

Conv2dLayer::Conv2dLayer(std::string name, std::int64_t in_channels,
                         std::int64_t out_channels, Conv2dSpec spec, Rng& rng)
    : spec_(spec) {
  const float fan_in =
      static_cast<float>(in_channels * spec.kernel_h * spec.kernel_w);
  weight_ = make_param(name + ".weight",
                       Shape{out_channels, in_channels, spec.kernel_h,
                             spec.kernel_w},
                       rng, 1.0f / std::sqrt(fan_in));
  bias_ = make_const_param(name + ".bias", Shape{out_channels}, 0.0f);
}

Var Conv2dLayer::forward(const Var& x) const {
  return conv2d(x, Var::parameter(weight_), Var::parameter(bias_), spec_);
}

void Conv2dLayer::collect_parameters(std::vector<ParamPtr>& out) const {
  out.push_back(weight_);
  out.push_back(bias_);
}

}  // namespace orbit2::autograd
