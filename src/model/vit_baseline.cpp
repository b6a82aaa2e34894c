#include "model/vit_baseline.hpp"

#include "graph/ir.hpp"
#include "model/pos_embed.hpp"
#include "tensor/resize.hpp"

namespace orbit2::model {

using autograd::Var;

ViTBaselineModel::ViTBaselineModel(ModelConfig config, Rng& rng)
    : config_(std::move(config)),
      channel_conv_("vit.channel_conv", config_.in_channels,
                    kAggregatedChannels, {3, 3, 1, 1}, rng),
      patch_embed_("vit.patch_embed",
                   kAggregatedChannels * config_.patch * config_.patch,
                   config_.embed_dim, rng),
      final_norm_("vit.final_norm", config_.embed_dim),
      decoder_("vit.decoder", config_.embed_dim,
               config_.patch * config_.patch * config_.out_channels, rng) {
  ORBIT2_REQUIRE(config_.architecture == Architecture::kViTBaseline,
                 "ViTBaselineModel requires a kViTBaseline config");
  blocks_.reserve(static_cast<std::size_t>(config_.layers));
  for (std::int64_t l = 0; l < config_.layers; ++l) {
    blocks_.push_back(std::make_unique<autograd::TransformerBlock>(
        "vit.block" + std::to_string(l), config_.embed_dim, config_.heads,
        config_.mlp_hidden(), rng));
  }
}

Var ViTBaselineModel::forward(const Tensor& input) const {
  ORBIT2_REQUIRE(input.rank() == 3, "ViT input must be [Cin, h, w]");
  ORBIT2_REQUIRE(input.dim(0) == config_.in_channels,
                 "input channels " << input.dim(0) << " vs config "
                                   << config_.in_channels);
  const std::int64_t h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = h * config_.upscale;
  const std::int64_t out_w = w * config_.upscale;
  const std::int64_t p = config_.patch;
  ORBIT2_REQUIRE(out_h % p == 0 && out_w % p == 0,
                 "HR grid not divisible by patch");

  // Fig 1 step 1: upsample every channel to the target grid (input is data,
  // so this is a raw resize — its cost shows up as the long HR sequence).
  const Tensor upsampled = resize_bilinear(input, out_h, out_w);
  graph::capture_op(upsampled, graph::OpKind::kResizeBilinear, {&input});

  // Step 2: aggregate channels in feature space with a shallow conv.
  Var features = channel_conv_.forward(Var::constant(upsampled));

  // Step 3: tokenize the HR grid — this is the quadratic-cost sequence.
  Var tokens = autograd::image_to_tokens(features, p);
  tokens = patch_embed_.forward(tokens);
  tokens = autograd::add(
      tokens, Var::constant(sincos_position_embedding(out_h / p, out_w / p,
                                                      config_.embed_dim)));

  // Step 4: ViT training blocks.
  for (const auto& block : blocks_) {
    tokens = block->forward(tokens, config_.use_flash_attention);
  }

  // Step 5: project back to image space per output variable.
  tokens = final_norm_.forward(tokens);
  tokens = decoder_.forward(tokens);
  return autograd::tokens_to_image(tokens, config_.out_channels, out_h, out_w,
                                   p);
}

void ViTBaselineModel::collect_parameters(
    std::vector<autograd::ParamPtr>& out) const {
  channel_conv_.collect_parameters(out);
  patch_embed_.collect_parameters(out);
  for (const auto& block : blocks_) block->collect_parameters(out);
  final_norm_.collect_parameters(out);
  decoder_.collect_parameters(out);
}

}  // namespace orbit2::model
