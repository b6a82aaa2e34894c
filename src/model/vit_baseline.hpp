#pragma once
// Upsample-first ViT baseline (paper Fig 1): the generalized architecture of
// Prithvi / ClimateLearn that ORBIT-2's ablations compare against.
//
// Coarse inputs are bilinearly upsampled to the target resolution *before*
// the trunk, channels are aggregated by a shallow convolution, and the ViT
// runs on the HR token grid — upscale^2 more tokens than Reslim, which is
// exactly the quadratic self-attention blow-up Table II(a) measures.

#include <memory>
#include <vector>

#include "autograd/nn.hpp"
#include "model/config.hpp"
#include "model/downscaler.hpp"

namespace orbit2::model {

class ViTBaselineModel : public Downscaler {
 public:
  ViTBaselineModel(ModelConfig config, Rng& rng);

  /// [Cin, h, w] -> prediction Var [Cout, h*upscale, w*upscale].
  autograd::Var forward(const Tensor& input) const;

  autograd::Var downscale(const Tensor& input) const override {
    return forward(input);
  }
  const ModelConfig& model_config() const override { return config_; }

  void collect_parameters(std::vector<autograd::ParamPtr>& out) const override;
  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  /// Shallow conv aggregating the variable channels in feature space.
  autograd::Conv2dLayer channel_conv_;
  autograd::Linear patch_embed_;
  std::vector<std::unique_ptr<autograd::TransformerBlock>> blocks_;
  autograd::LayerNorm final_norm_;
  autograd::Linear decoder_;

  /// Width of the aggregated feature stack fed to tokenization.
  static constexpr std::int64_t kAggregatedChannels = 8;
};

}  // namespace orbit2::model
