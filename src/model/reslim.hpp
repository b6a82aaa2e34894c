#pragma once
// Reslim: Residual Slim ViT (paper §III-A, Fig 2).
//
// Main path (no input upsampling — the key cost saving):
//   per-variable tokenization of the LR grid -> shared patch embedding +
//   per-variable embedding -> cross-attention channel aggregation (V*P -> P
//   tokens) -> + sinusoidal position embedding + learnable resolution
//   embedding -> optional quad-tree adaptive spatial compression -> ViT
//   trunk (flash attention) -> decompression -> LayerNorm + linear decoder
//   to (patch*upscale)^2 * C_out features per token -> pixel-shuffle to the
//   HR image -> 3x3 conv refinement.
//
// Residual path (linear complexity, carries the upsampling):
//   3x3 conv -> GELU -> 3x3 conv on the LR input -> bilinear upsample ->
//   3x3 conv. Added to the main-path output so the ViT learns only the
//   residual detail — the paper's uncertainty-reduction mechanism.

#include <memory>
#include <vector>

#include "autograd/nn.hpp"
#include "model/config.hpp"
#include "model/downscaler.hpp"
#include "quadtree/quadtree.hpp"

namespace orbit2::model {

/// Diagnostics from one forward pass.
struct ForwardStats {
  std::int64_t tokens_before_compression = 0;
  std::int64_t tokens_after_compression = 0;
  float achieved_compression = 1.0f;
};

class ReslimModel : public Downscaler {
 public:
  ReslimModel(ModelConfig config, Rng& rng);

  /// Downscales one normalized sample [Cin, h, w] ->
  /// prediction Var [Cout, h*upscale, w*upscale]. Differentiable.
  /// Under graph capture with adaptive compression, the partition becomes
  /// a value of the captured graph (see the forward's compression step), so
  /// predict_field serves compressed configs from one plan per shape.
  autograd::Var forward(const Tensor& input, ForwardStats* stats = nullptr) const;

  autograd::Var downscale(const Tensor& input) const override {
    return forward(input);
  }
  const ModelConfig& model_config() const override { return config_; }

  void collect_parameters(std::vector<autograd::ParamPtr>& out) const override;
  const ModelConfig& config() const { return config_; }

 private:
  /// The residual convolutional path (LR conv stack + upsample + conv).
  autograd::Var residual_path(const Tensor& input, std::int64_t out_h,
                              std::int64_t out_w) const;

  ModelConfig config_;
  autograd::Linear patch_embed_;
  autograd::ParamPtr variable_embedding_;    // [V, D]
  autograd::ParamPtr aggregation_query_;     // [D]
  autograd::ParamPtr aggregation_wk_;        // [D, D]
  autograd::ParamPtr aggregation_wv_;        // [D, D]
  autograd::ParamPtr resolution_embedding_;  // [table, D]
  std::vector<std::unique_ptr<autograd::TransformerBlock>> blocks_;
  autograd::LayerNorm final_norm_;
  autograd::Linear decoder_;
  autograd::Conv2dLayer decoder_conv_;
  autograd::Conv2dLayer residual_conv1_;
  autograd::Conv2dLayer residual_conv2_;
  autograd::Conv2dLayer residual_conv3_;
};

/// Adds table[row] to every token row (the resolution embedding broadcast).
autograd::Var add_table_row(const autograd::Var& tokens,
                            const autograd::Var& table, std::int64_t row);

/// Adds table[v] to the v-th block of P token rows (variable embeddings).
autograd::Var add_variable_embedding(const autograd::Var& tokens,
                                     const autograd::Var& table,
                                     std::int64_t num_variables,
                                     std::int64_t num_positions);

}  // namespace orbit2::model
