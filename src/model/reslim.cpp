#include "model/reslim.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "core/kernels.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "image/filters.hpp"
#include "model/channel_agg.hpp"
#include "model/pos_embed.hpp"
#include "quadtree/quadtree_ops.hpp"

namespace orbit2::model {

using autograd::Var;

namespace {

/// Replays the per-variable tokenization as one gather: input [V, h, w] ->
/// out [V*P, p*p], variable-major. Pure copies, so any partitioning is
/// bitwise identical to the eager slice + image_to_tokens_raw sequence.
void replay_tokenize(const graph::GraphOp& op, graph::Executor& ex) {
  const Tensor& input = ex.value(op.inputs[0]);
  Tensor& out = ex.mutable_value(op.output);
  const std::int64_t p = op.iparams[0];
  const std::int64_t h = input.dim(1), w = input.dim(2);
  const std::int64_t gw = w / p;
  const std::int64_t positions = (h / p) * gw;
  const float* src = input.data().data();
  float* dst = out.data().data();
  kernels::parallel_for(
      input.dim(0) * positions, kernels::grain_for(p * p),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t var = t / positions, pos = t % positions;
          const std::int64_t by = pos / gw, bx = pos % gw;
          const float* cell = src + var * h * w + by * p * w + bx * p;
          float* token = dst + t * p * p;
          for (std::int64_t py = 0; py < p; ++py) {
            std::copy(cell + py * w, cell + py * w + p, token + py * p);
          }
        }
      });
}

/// The quad-tree leaves of the aggregated tokens [P, D]: the RMS of each
/// token on the [gh, gw] grid is the feature density, Canny marks its
/// edges, and the threshold search hits `ratio`. The eager forward and the
/// compiled partition op both call this, so they pick the same leaves.
std::vector<PatchRect> adaptive_leaves(const Tensor& tokens, std::int64_t gh,
                                       std::int64_t gw, float ratio) {
  Tensor density(Shape{gh, gw});
  const float* src = tokens.data().data();
  float* dst = density.data().data();
  const std::int64_t d = tokens.dim(1);
  for (std::int64_t i = 0; i < gh * gw; ++i) {
    double norm = 0.0;
    const float* row = src + i * d;
    for (std::int64_t f = 0; f < d; ++f) {
      norm += static_cast<double>(row[f]) * row[f];
    }
    dst[i] = static_cast<float>(std::sqrt(norm / static_cast<double>(d)));
  }
  return partition_with_target_ratio(canny(density), ratio);
}

// Replays of the compression stage. iparams {gh, gw}; the partition value is
// the pool's and the scatter's second input.

void replay_partition(const graph::GraphOp& op, graph::Executor& ex) {
  encode_partition(adaptive_leaves(ex.value(op.inputs[0]), op.iparams[0],
                                   op.iparams[1], op.fparams[0]),
                   ex.mutable_value(op.output));
}

void replay_pool(const graph::GraphOp& op, graph::Executor& ex) {
  pool_tokens_into(ex.value(op.inputs[0]), op.iparams[0], op.iparams[1],
                   ex.value(op.inputs[1]), ex.mutable_value(op.output));
}

void replay_scatter(const graph::GraphOp& op, graph::Executor& ex) {
  scatter_tokens_into(ex.value(op.inputs[0]), op.iparams[0], op.iparams[1],
                      ex.value(op.inputs[1]), ex.mutable_value(op.output));
}

/// Records one kCustom op reading `inputs` and writing `output`.
void record_custom(graph::CaptureSink& sink, graph::CustomReplayFn fn,
                   std::initializer_list<const Tensor*> inputs,
                   const Tensor& output, std::vector<std::int64_t> iparams,
                   std::vector<float> fparams = {}) {
  graph::GraphOp op;
  op.kind = graph::OpKind::kCustom;
  for (const Tensor* in : inputs) op.inputs.push_back(sink.value_for(*in));
  op.iparams = std::move(iparams);
  op.fparams = std::move(fparams);
  op.custom = fn;
  op.output = sink.bind_output(output);
  sink.record(std::move(op));
}

}  // namespace

Var add_table_row(const Var& tokens, const Var& table, std::int64_t row) {
  const Tensor tok = tokens.value();
  const Tensor tab = table.value();
  ORBIT2_REQUIRE(tok.rank() == 2 && tab.rank() == 2, "add_table_row ranks");
  ORBIT2_REQUIRE(row >= 0 && row < tab.dim(0), "table row out of range");
  ORBIT2_REQUIRE(tok.dim(1) == tab.dim(1), "feature dim mismatch");
  Tensor value = tok.clone();
  {
    const std::int64_t n = value.dim(0), d = value.dim(1);
    float* p = value.data().data();
    const float* r = tab.data().data() + row * d;
    for (std::int64_t i = 0; i < n; ++i) {
      float* prow = p + i * d;
      for (std::int64_t f = 0; f < d; ++f) prow[f] += r[f];
    }
  }
  if (graph::CaptureSink* sink = graph::capture_sink()) {
    graph::GraphOp op;
    op.kind = graph::OpKind::kElementwise;
    graph::EwStage stage;
    stage.kind = graph::EwKind::kAddTableRow;
    stage.a = tok.dim(1);
    stage.b = row;
    op.inputs.push_back(sink->value_for(tok));
    stage.aux = sink->value_for(tab);
    op.inputs.push_back(stage.aux);
    op.stages.push_back(stage);
    op.output = sink->bind_output(value);
    sink->record(std::move(op));
  }
  const Shape tab_shape = tab.shape();
  return autograd::make_op(
      std::move(value), {tokens, table},
      [tokens, table, tab_shape, row](const Tensor& g) {
        accumulate_into(tokens, g);
        if (table.needs_grad()) {
          Tensor grad_table = Tensor::zeros(tab_shape);
          const std::int64_t n = g.dim(0), d = g.dim(1);
          float* gt = grad_table.data().data() + row * d;
          const float* pg = g.data().data();
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t f = 0; f < d; ++f) gt[f] += pg[i * d + f];
          }
          accumulate_into(table, grad_table);
        }
      });
}

Var add_variable_embedding(const Var& tokens, const Var& table,
                           std::int64_t num_variables,
                           std::int64_t num_positions) {
  const Tensor tok = tokens.value();
  const Tensor tab = table.value();
  ORBIT2_REQUIRE(tok.dim(0) == num_variables * num_positions,
                 "token rows " << tok.dim(0) << " vs V*P");
  ORBIT2_REQUIRE(tab.shape() == Shape({num_variables, tok.dim(1)}),
                 "variable table must be [V, D]");
  Tensor value = tok.clone();
  {
    const std::int64_t d = value.dim(1);
    float* p = value.data().data();
    const float* t = tab.data().data();
    for (std::int64_t v = 0; v < num_variables; ++v) {
      const float* vrow = t + v * d;
      for (std::int64_t pos = 0; pos < num_positions; ++pos) {
        float* prow = p + (v * num_positions + pos) * d;
        for (std::int64_t f = 0; f < d; ++f) prow[f] += vrow[f];
      }
    }
  }
  if (graph::CaptureSink* sink = graph::capture_sink()) {
    graph::GraphOp op;
    op.kind = graph::OpKind::kElementwise;
    graph::EwStage stage;
    stage.kind = graph::EwKind::kAddVarEmb;
    stage.a = tok.dim(1);
    stage.b = num_positions;
    op.inputs.push_back(sink->value_for(tok));
    stage.aux = sink->value_for(tab);
    op.inputs.push_back(stage.aux);
    op.stages.push_back(stage);
    op.output = sink->bind_output(value);
    sink->record(std::move(op));
  }
  const Shape tab_shape = tab.shape();
  return autograd::make_op(
      std::move(value), {tokens, table},
      [tokens, table, tab_shape, num_variables,
       num_positions](const Tensor& g) {
        accumulate_into(tokens, g);
        if (table.needs_grad()) {
          Tensor grad_table = Tensor::zeros(tab_shape);
          const std::int64_t d = g.dim(1);
          float* gt = grad_table.data().data();
          const float* pg = g.data().data();
          for (std::int64_t v = 0; v < num_variables; ++v) {
            float* vrow = gt + v * d;
            for (std::int64_t pos = 0; pos < num_positions; ++pos) {
              const float* prow = pg + (v * num_positions + pos) * d;
              for (std::int64_t f = 0; f < d; ++f) vrow[f] += prow[f];
            }
          }
          accumulate_into(table, grad_table);
        }
      });
}

ReslimModel::ReslimModel(ModelConfig config, Rng& rng)
    : config_(std::move(config)),
      patch_embed_("reslim.patch_embed", config_.patch * config_.patch,
                   config_.embed_dim, rng),
      final_norm_("reslim.final_norm", config_.embed_dim),
      decoder_("reslim.decoder", config_.embed_dim,
               config_.patch * config_.patch * config_.upscale *
                   config_.upscale * config_.out_channels,
               rng),
      decoder_conv_("reslim.decoder_conv", config_.out_channels,
                    config_.out_channels, {3, 3, 1, 1}, rng),
      residual_conv1_("reslim.res_conv1", config_.in_channels,
                      config_.residual_hidden, {3, 3, 1, 1}, rng),
      residual_conv2_("reslim.res_conv2", config_.residual_hidden,
                      config_.out_channels, {3, 3, 1, 1}, rng),
      residual_conv3_("reslim.res_conv3", config_.out_channels,
                      config_.out_channels, {3, 3, 1, 1}, rng) {
  ORBIT2_REQUIRE(config_.architecture == Architecture::kReslim,
                 "ReslimModel requires a Reslim config");
  variable_embedding_ = autograd::make_param(
      "reslim.var_embed", Shape{config_.in_channels, config_.embed_dim}, rng);
  aggregation_query_ =
      autograd::make_param("reslim.agg_query", Shape{config_.embed_dim}, rng);
  aggregation_wk_ = autograd::make_param(
      "reslim.agg_wk", Shape{config_.embed_dim, config_.embed_dim}, rng,
      1.0f / std::sqrt(static_cast<float>(config_.embed_dim)));
  aggregation_wv_ = autograd::make_param(
      "reslim.agg_wv", Shape{config_.embed_dim, config_.embed_dim}, rng,
      1.0f / std::sqrt(static_cast<float>(config_.embed_dim)));
  resolution_embedding_ = autograd::make_param(
      "reslim.res_embed", Shape{kResolutionTableSize, config_.embed_dim}, rng);
  blocks_.reserve(static_cast<std::size_t>(config_.layers));
  for (std::int64_t l = 0; l < config_.layers; ++l) {
    blocks_.push_back(std::make_unique<autograd::TransformerBlock>(
        "reslim.block" + std::to_string(l), config_.embed_dim, config_.heads,
        config_.mlp_hidden(), rng));
  }
}

Var ReslimModel::residual_path(const Tensor& input, std::int64_t out_h,
                               std::int64_t out_w) const {
  // Purely linear convolutions: the path's job (paper §III-A) is to supply
  // the coarse high-resolution approximation — essentially interpolation of
  // the right input channels — which a linear conv stack represents exactly
  // and learns in a handful of steps. Nonlinear detail is the ViT's job.
  Var x = Var::constant(input);
  Var lr = residual_conv2_.forward(residual_conv1_.forward(x));
  Var up = autograd::upsample_bilinear(lr, out_h, out_w);
  return residual_conv3_.forward(up);
}

Var ReslimModel::forward(const Tensor& input, ForwardStats* stats) const {
  ORBIT2_REQUIRE(input.rank() == 3, "Reslim input must be [Cin, h, w]");
  ORBIT2_REQUIRE(input.dim(0) == config_.in_channels,
                 "input channels " << input.dim(0) << " vs config "
                                   << config_.in_channels);
  const std::int64_t h = input.dim(1), w = input.dim(2);
  const std::int64_t p = config_.patch;
  ORBIT2_REQUIRE(h % p == 0 && w % p == 0, "grid not divisible by patch");
  const std::int64_t gh = h / p, gw = w / p;
  const std::int64_t positions = gh * gw;
  const std::int64_t variables = config_.in_channels;
  const std::int64_t out_h = h * config_.upscale;
  const std::int64_t out_w = w * config_.upscale;

  // Per-variable tokenization: [V*P, p*p], variable-major. Input is data,
  // so this is a raw (non-differentiable) rearrangement.
  Tensor raw_tokens(Shape{variables * positions, p * p});
  for (std::int64_t v = 0; v < variables; ++v) {
    const Tensor channel = input.slice(0, v, 1);
    const Tensor tokens = autograd::image_to_tokens_raw(channel, p);
    std::copy(tokens.data().begin(), tokens.data().end(),
              raw_tokens.data().begin() + v * positions * (p * p));
  }
  if (graph::CaptureSink* sink = graph::capture_sink()) {
    record_custom(*sink, &replay_tokenize, {&input}, raw_tokens, {p});
  }

  // Shared patch embedding + per-variable embedding.
  Var embedded = patch_embed_.forward(Var::constant(raw_tokens));
  embedded = add_variable_embedding(
      embedded, Var::parameter(variable_embedding_), variables, positions);

  // Cross-attention channel aggregation: collapse the variable axis.
  Var aggregated = aggregate_channels(
      embedded, Var::parameter(aggregation_query_),
      Var::parameter(aggregation_wk_), Var::parameter(aggregation_wv_),
      variables, positions);

  // Position + resolution embeddings.
  aggregated = autograd::add(
      aggregated,
      Var::constant(sincos_position_embedding(gh, gw, config_.embed_dim)));
  aggregated = add_table_row(aggregated, Var::parameter(resolution_embedding_),
                             resolution_index(config_.upscale));

  // Adaptive spatial compression: project token magnitudes back to image
  // space, detect feature density with Canny, and pool tokens per quad-tree
  // leaf. The partition itself is data-dependent structure, computed on the
  // CPU outside the tape (as the paper's asynchronous quad-tree builders do).
  // Under capture it is a graph value instead: the trunk runs on
  // max_leaves_for_ratio(P, ratio) rows, the first L of them live (L = the
  // value's leaf count) and the rest zero, so one plan serves every
  // partition of this input shape.
  std::vector<PatchRect> leaves;
  Tensor partition;
  const Tensor* live = nullptr;  // &partition while capturing compression
  Var trunk_input = aggregated;
  if (config_.compression_ratio > 1.0f) {
    const float ratio = config_.compression_ratio;
    leaves = adaptive_leaves(aggregated.value(), gh, gw, ratio);
    if (graph::CaptureSink* sink = graph::capture_sink()) {
      const std::int64_t max_leaves = max_leaves_for_ratio(positions, ratio);
      partition = Tensor(Shape{partition_value_size(max_leaves)});
      encode_partition(leaves, partition);
      record_custom(*sink, &replay_partition, {&aggregated.value()},
                    partition, {gh, gw}, {ratio});
      Tensor pooled(Shape{max_leaves, config_.embed_dim});
      pool_tokens_into(aggregated.value(), gh, gw, partition, pooled);
      record_custom(*sink, &replay_pool, {&aggregated.value(), &partition},
                    pooled, {gh, gw});
      trunk_input = Var::constant(pooled);
      live = &partition;
    } else {
      trunk_input = compress_tokens(aggregated, gh, gw, leaves);
    }
  }
  if (stats) {
    const std::int64_t tokens =
        leaves.empty() ? positions : static_cast<std::int64_t>(leaves.size());
    stats->tokens_before_compression = positions;
    stats->tokens_after_compression = tokens;
    stats->achieved_compression =
        static_cast<float>(positions) / static_cast<float>(tokens);
  }

  // ViT trunk on the (possibly compressed) sequence. With a windowed
  // trunk (Swin-style baseline), alternating layers shift by half a window
  // so information crosses window boundaries.
  Var x = trunk_input;
  if (config_.attention_window > 0) {
    ORBIT2_REQUIRE(config_.compression_ratio <= 1.0f,
                   "windowed attention requires the uniform token grid "
                   "(disable adaptive compression)");
    WindowAttentionSpec spec;
    spec.grid_h = gh;
    spec.grid_w = gw;
    spec.window = config_.attention_window;
    for (std::size_t layer = 0; layer < blocks_.size(); ++layer) {
      spec.shift = (layer % 2 == 1) ? config_.attention_window / 2 : 0;
      x = blocks_[layer]->forward_windowed(x, config_.use_flash_attention,
                                           spec);
    }
  } else {
    for (const auto& block : blocks_) {
      x = block->forward(x, config_.use_flash_attention, live);
    }
  }

  // Decompression back to the uniform grid.
  if (live != nullptr) {
    Tensor grid(Shape{positions, config_.embed_dim});
    scatter_tokens_into(x.value(), gh, gw, partition, grid);
    record_custom(*graph::capture_sink(), &replay_scatter,
                  {&x.value(), &partition}, grid, {gh, gw});
    x = Var::constant(grid);
  } else if (!leaves.empty()) {
    x = decompress_tokens(x, gh, gw, leaves);
  }

  // Decoder: LayerNorm -> linear to (p*up)^2 * Cout per token -> image.
  x = final_norm_.forward(x);
  x = decoder_.forward(x);
  Var main = autograd::tokens_to_image(x, config_.out_channels, out_h, out_w,
                                       p * config_.upscale);
  main = decoder_conv_.forward(main);

  // Residual convolutional path carries the upsampling baseline; ablation
  // runs can disable it to quantify its contribution (DESIGN.md ablations).
  if (!config_.use_residual_path) return main;
  Var residual = residual_path(input, out_h, out_w);
  return autograd::add(main, residual);
}

void ReslimModel::collect_parameters(
    std::vector<autograd::ParamPtr>& out) const {
  patch_embed_.collect_parameters(out);
  out.push_back(variable_embedding_);
  out.push_back(aggregation_query_);
  out.push_back(aggregation_wk_);
  out.push_back(aggregation_wv_);
  out.push_back(resolution_embedding_);
  for (const auto& block : blocks_) block->collect_parameters(out);
  final_norm_.collect_parameters(out);
  decoder_.collect_parameters(out);
  decoder_conv_.collect_parameters(out);
  residual_conv1_.collect_parameters(out);
  residual_conv2_.collect_parameters(out);
  residual_conv3_.collect_parameters(out);
}

}  // namespace orbit2::model
