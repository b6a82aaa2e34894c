#pragma once
// Neural-network module zoo built on the autograd tape.
//
// Modules own Parameters; `parameters()` walks the tree so the optimizer,
// checkpointing, FSDP accounting and the hwsim FLOP profiler all see one
// flat list. Initialization follows ViT conventions (truncated-normal-ish
// via plain normal with small stddev, zero biases).

#include <memory>
#include <string>
#include <vector>

#include "attention/window_attention.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "core/rng.hpp"

namespace orbit2::autograd {

/// Base class: a named subtree of parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends all parameters of this module (recursively) to `out`.
  virtual void collect_parameters(std::vector<ParamPtr>& out) const = 0;

  /// Flat parameter list.
  std::vector<ParamPtr> parameters() const {
    std::vector<ParamPtr> out;
    collect_parameters(out);
    return out;
  }

  /// Total trainable element count.
  std::int64_t parameter_count() const {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p->numel();
    return n;
  }

  /// Zeroes every parameter gradient.
  void zero_grad() const {
    for (const auto& p : parameters()) p->zero_grad();
  }
};

/// y = x W + b with W [in, out].
class Linear : public Module {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
         Rng& rng);

  Var forward(const Var& x) const;
  void collect_parameters(std::vector<ParamPtr>& out) const override;

  std::int64_t in_features() const { return weight_->value.dim(0); }
  std::int64_t out_features() const { return weight_->value.dim(1); }

  ParamPtr weight() const { return weight_; }
  ParamPtr bias() const { return bias_; }

 private:
  ParamPtr weight_;
  ParamPtr bias_;
};

/// Row-wise layer normalization with learnable scale/shift.
class LayerNorm : public Module {
 public:
  LayerNorm(std::string name, std::int64_t dim);

  Var forward(const Var& x) const;
  void collect_parameters(std::vector<ParamPtr>& out) const override;

 private:
  ParamPtr gamma_;
  ParamPtr beta_;
  float epsilon_ = 1e-5f;
};

/// Two-layer GELU MLP, hidden = ratio * dim (ViT feed-forward sublayer).
class Mlp : public Module {
 public:
  Mlp(std::string name, std::int64_t dim, std::int64_t hidden, Rng& rng);

  Var forward(const Var& x) const;
  void collect_parameters(std::vector<ParamPtr>& out) const override;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Multi-head self-attention with owned projection weights.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::string name, std::int64_t dim,
                         std::int64_t heads, Rng& rng);

  /// `use_flash` selects the cache-blocked kernel. `partition` marks the
  /// live rows of a padded sequence (see multihead_self_attention).
  Var forward(const Var& x, bool use_flash,
              const Tensor* partition = nullptr) const;

  /// Swin-style (shifted-)window variant: attention restricted to the
  /// windows of `spec` over a token grid, sharing this module's projection
  /// weights. Differentiable end-to-end (composed from permute / slice /
  /// concat / attention ops). Throws on a spec check_window_spec rejects
  /// or a token count other than grid_h * grid_w.
  Var forward_windowed(const Var& x, bool use_flash,
                       const WindowAttentionSpec& spec) const;

  void collect_parameters(std::vector<ParamPtr>& out) const override;

  std::int64_t heads() const { return heads_; }

 private:
  std::int64_t heads_;
  ParamPtr wq_, wk_, wv_, wo_;
  ParamPtr bq_, bk_, bv_, bo_;
};

/// Pre-norm transformer block: x + MHA(LN(x)), then x + MLP(LN(x)).
class TransformerBlock : public Module {
 public:
  TransformerBlock(std::string name, std::int64_t dim, std::int64_t heads,
                   std::int64_t mlp_hidden, Rng& rng);

  /// `partition` marks the live rows of a padded sequence; every sublayer
  /// but attention is row-wise, so only attention reads it.
  Var forward(const Var& x, bool use_flash,
              const Tensor* partition = nullptr) const;
  /// Windowed-trunk variant (spec.window restricted attention).
  Var forward_windowed(const Var& x, bool use_flash,
                       const WindowAttentionSpec& spec) const;
  void collect_parameters(std::vector<ParamPtr>& out) const override;

 private:
  LayerNorm norm1_;
  MultiHeadSelfAttention attention_;
  LayerNorm norm2_;
  Mlp mlp_;
};

/// 3x3 (configurable) convolution layer on [C,H,W].
class Conv2dLayer : public Module {
 public:
  Conv2dLayer(std::string name, std::int64_t in_channels,
              std::int64_t out_channels, Conv2dSpec spec, Rng& rng);

  Var forward(const Var& x) const;
  void collect_parameters(std::vector<ParamPtr>& out) const override;

  const Conv2dSpec& spec() const { return spec_; }

 private:
  Conv2dSpec spec_;
  ParamPtr weight_;
  ParamPtr bias_;
};

/// Creates a parameter with N(0, stddev) init.
ParamPtr make_param(std::string name, Shape shape, Rng& rng,
                    float stddev = 0.02f);
/// Creates a parameter filled with a constant.
ParamPtr make_const_param(std::string name, Shape shape, float value);

}  // namespace orbit2::autograd
