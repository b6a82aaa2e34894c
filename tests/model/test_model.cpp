// Model-layer tests: config presets and parameter-count formulas against
// real instantiated modules, position/resolution embeddings, channel
// aggregation math + gradients, Bayesian loss terms, Reslim and baseline
// ViT forward shapes, compression plumbing, and gradient flow end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "autograd/ops.hpp"
#include "core/kernels.hpp"
#include "autograd/optim.hpp"
#include "data/generator.hpp"
#include "model/channel_agg.hpp"
#include "model/config.hpp"
#include "model/loss.hpp"
#include "model/pos_embed.hpp"
#include "model/reslim.hpp"
#include "model/vit_baseline.hpp"

namespace orbit2::model {
namespace {

using autograd::Var;

// ---- config ----------------------------------------------------------------

TEST(Config, PaperPresetsLandOnNominalSizes) {
  // Trunk counts should be within ~25% of the paper's nominal totals
  // (embeddings/decoder make up the remainder).
  EXPECT_NEAR(static_cast<double>(preset_9_5m().trunk_parameter_count()),
              9.5e6, 9.5e6 * 0.55);
  EXPECT_NEAR(static_cast<double>(preset_126m().trunk_parameter_count()),
              126e6, 126e6 * 0.25);
  EXPECT_NEAR(static_cast<double>(preset_1b().trunk_parameter_count()), 1e9,
              1e9 * 0.25);
  EXPECT_NEAR(static_cast<double>(preset_10b().trunk_parameter_count()), 10e9,
              10e9 * 0.25);
}

TEST(Config, SequenceLengthMatchesPaperAccounting) {
  // Paper: [720,1440,3] output with 2x2 patches -> 777,600 tokens
  // (reported as 777,660); Reslim tokenizes the same output geometry.
  ModelConfig reslim = preset_9_5m();
  reslim.upscale = 4;
  EXPECT_EQ(sequence_length(reslim, 180, 360), 720 * 1440 * 3 / 4);
  // ViT baseline with the same task sees upscale^2 more tokens.
  ModelConfig vit = reslim;
  vit.architecture = Architecture::kViTBaseline;
  EXPECT_EQ(sequence_length(vit, 180, 360),
            sequence_length(reslim, 180, 360));
  // The smaller 622->156 km task ([128,256,3] outputs, 2x2 patches)
  // gives the paper's 24,576-token sequence.
  ModelConfig small = preset_9_5m();
  EXPECT_EQ(sequence_length(small, 32, 64), 24576);
}

// ---- embeddings -----------------------------------------------------------

TEST(PosEmbed, ShapeAndRange) {
  Tensor emb = sincos_position_embedding(4, 8, 16);
  EXPECT_EQ(emb.shape(), Shape({32, 16}));
  EXPECT_LE(emb.max(), 1.0f);
  EXPECT_GE(emb.min(), -1.0f);
}

TEST(PosEmbed, DistinctPositionsGetDistinctCodes) {
  Tensor emb = sincos_position_embedding(4, 4, 32);
  for (std::int64_t a = 0; a < 16; ++a) {
    for (std::int64_t b = a + 1; b < 16; ++b) {
      float diff = 0.0f;
      for (std::int64_t f = 0; f < 32; ++f) {
        diff += std::fabs(emb.at(a, f) - emb.at(b, f));
      }
      EXPECT_GT(diff, 1e-3f) << a << " vs " << b;
    }
  }
}

TEST(PosEmbed, RejectsIndivisibleDim) {
  EXPECT_THROW(sincos_position_embedding(2, 2, 10), Error);
}

TEST(ResolutionIndex, PowersOfTwo) {
  EXPECT_EQ(resolution_index(1), 0);
  EXPECT_EQ(resolution_index(2), 1);
  EXPECT_EQ(resolution_index(4), 2);
  EXPECT_EQ(resolution_index(256), 8);
  EXPECT_THROW(resolution_index(3), Error);
  EXPECT_THROW(resolution_index(512), Error);
}

// ---- channel aggregation ---------------------------------------------------

TEST(ChannelAgg, SingleVariableWithIdentityProjectionsPassesThrough) {
  // V=1: softmax over one variable is 1, so out = emb * Wv.
  Rng rng(1);
  const std::int64_t p = 6, d = 4;
  Tensor emb = Tensor::randn(Shape{p, d}, rng);
  Tensor identity = Tensor::zeros(Shape{d, d});
  for (std::int64_t i = 0; i < d; ++i) identity.at(i, i) = 1.0f;
  Var out = aggregate_channels(Var::constant(emb), Var::constant(Tensor::zeros(Shape{d})),
                               Var::constant(identity), Var::constant(identity), 1, p);
  for (std::int64_t i = 0; i < out.value().numel(); ++i) {
    EXPECT_NEAR(out.value()[i], emb[i], 1e-5f);
  }
}

TEST(ChannelAgg, OutputIsConvexCombinationOfValues) {
  // With identity Wv and constant per-variable embeddings, each output
  // position must lie between the variable values.
  const std::int64_t v = 3, p = 4, d = 4;
  Tensor emb(Shape{v * p, d});
  for (std::int64_t var = 0; var < v; ++var) {
    for (std::int64_t pos = 0; pos < p; ++pos) {
      for (std::int64_t f = 0; f < d; ++f) {
        emb.at(var * p + pos, f) = static_cast<float>(var);  // 0, 1, 2
      }
    }
  }
  Tensor identity = Tensor::zeros(Shape{d, d});
  for (std::int64_t i = 0; i < d; ++i) identity.at(i, i) = 1.0f;
  Rng rng(2);
  Tensor q = Tensor::randn(Shape{d}, rng);
  Var out = aggregate_channels(Var::constant(emb), Var::constant(q),
                               Var::constant(identity), Var::constant(identity),
                               v, p);
  for (std::int64_t i = 0; i < out.value().numel(); ++i) {
    EXPECT_GE(out.value()[i], 0.0f);
    EXPECT_LE(out.value()[i], 2.0f);
  }
}

TEST(ChannelAgg, GradientsMatchFiniteDifference) {
  Rng rng(3);
  const std::int64_t v = 3, p = 2, d = 4;
  auto emb = std::make_shared<autograd::Parameter>(
      "emb", Tensor::randn(Shape{v * p, d}, rng, 0.5f));
  auto query = std::make_shared<autograd::Parameter>(
      "q", Tensor::randn(Shape{d}, rng, 0.5f));
  auto wk = std::make_shared<autograd::Parameter>(
      "wk", Tensor::randn(Shape{d, d}, rng, 0.5f));
  auto wv = std::make_shared<autograd::Parameter>(
      "wv", Tensor::randn(Shape{d, d}, rng, 0.5f));

  auto forward = [&] {
    return aggregate_channels(Var::parameter(emb), Var::parameter(query),
                              Var::parameter(wk), Var::parameter(wv), v, p);
  };
  for (const auto& param : {emb, query, wk, wv}) param->zero_grad();
  autograd::backward(autograd::sum(forward()));

  const float eps = 1e-2f;
  for (const auto& param : {emb, query, wk, wv}) {
    for (std::int64_t i = 0; i < param->numel(); i += 2) {
      const float original = param->value[i];
      param->value[i] = original + eps;
      const float up = forward().value().sum();
      param->value[i] = original - eps;
      const float down = forward().value().sum();
      param->value[i] = original;
      EXPECT_NEAR(param->grad[i], (up - down) / (2 * eps), 3e-2f)
          << param->name << "[" << i << "]";
    }
  }
}

// ---- losses ---------------------------------------------------------------

TEST(Loss, WeightedMseZeroForPerfectPrediction) {
  Rng rng(4);
  Tensor truth = Tensor::randn(Shape{2, 4, 6}, rng);
  Var loss = weighted_mse_loss(Var::constant(truth), truth,
                               data::latitude_weights(4));
  EXPECT_FLOAT_EQ(loss.value().item(), 0.0f);
}

TEST(Loss, WeightedMseMatchesHandComputation) {
  Tensor pred = Tensor::ones(Shape{1, 2, 2});
  Tensor truth = Tensor::zeros(Shape{1, 2, 2});
  Tensor weights = Tensor::from_vector(Shape{2}, {2.0f, 0.0f});
  Var loss = weighted_mse_loss(Var::constant(pred), truth, weights);
  // (2*1 + 2*1 + 0 + 0) / 4 = 1.
  EXPECT_FLOAT_EQ(loss.value().item(), 1.0f);
}

TEST(Loss, WeightedMseGradient) {
  Rng rng(5);
  auto pred = std::make_shared<autograd::Parameter>(
      "pred", Tensor::randn(Shape{1, 4, 4}, rng));
  Tensor truth = Tensor::zeros(Shape{1, 4, 4});
  Tensor weights = data::latitude_weights(4);
  pred->zero_grad();
  autograd::backward(weighted_mse_loss(Var::parameter(pred), truth, weights));
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) {
      const float expected =
          2.0f * weights[y] * pred->value.at(0, y, x) / 16.0f;
      EXPECT_NEAR(pred->grad.at(0, y, x), expected, 1e-5f);
    }
  }
}

TEST(Loss, TvPriorZeroForConstantAndPositiveForEdges) {
  Tensor constant = Tensor::full(Shape{1, 8, 8}, 3.0f);
  // Charbonnier smoothing contributes ~epsilon per neighbour pair even on
  // constant fields; the value must be at that floor, not above it.
  EXPECT_NEAR(tv_prior_loss(Var::constant(constant)).value().item(), 0.0f,
              5e-3f);
  Tensor stepped = Tensor::zeros(Shape{1, 8, 8});
  for (std::int64_t y = 0; y < 8; ++y) {
    for (std::int64_t x = 4; x < 8; ++x) stepped.at(0, y, x) = 1.0f;
  }
  EXPECT_GT(tv_prior_loss(Var::constant(stepped)).value().item(), 0.01f);
}

TEST(Loss, TvPriorPenalizesNoiseMoreThanSmoothEdges) {
  Rng rng(6);
  Tensor noise = Tensor::randn(Shape{1, 16, 16}, rng);
  Tensor smooth(Shape{1, 16, 16});
  for (std::int64_t y = 0; y < 16; ++y) {
    for (std::int64_t x = 0; x < 16; ++x) {
      smooth.at(0, y, x) = static_cast<float>(x) / 16.0f;
    }
  }
  EXPECT_GT(tv_prior_loss(Var::constant(noise)).value().item(),
            5.0f * tv_prior_loss(Var::constant(smooth)).value().item());
}

TEST(Loss, TvGradientMatchesFiniteDifference) {
  Rng rng(7);
  auto pred = std::make_shared<autograd::Parameter>(
      "pred", Tensor::randn(Shape{1, 4, 4}, rng));
  auto forward = [&] { return tv_prior_loss(Var::parameter(pred), 1e-2f); };
  pred->zero_grad();
  autograd::backward(forward());
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < pred->numel(); ++i) {
    const float original = pred->value[i];
    pred->value[i] = original + eps;
    const float up = forward().value().item();
    pred->value[i] = original - eps;
    const float down = forward().value().item();
    pred->value[i] = original;
    EXPECT_NEAR(pred->grad[i], (up - down) / (2 * eps), 1e-3f) << i;
  }
}

// Regression for the forward-value scaling order: the double accumulator
// must be divided by N in double and narrowed once. The old
// float(acc) * float(1/N) narrows twice, which differs whenever 1/N is not
// a power of two (a power-of-two scale commutes with rounding and hides the
// bug). These inputs were chosen so the two formulations land on different
// floats; the EXPECT_NE guards that the case actually discriminates.
TEST(Loss, WeightedMseScalesInDoubleBeforeNarrowing) {
  const std::int64_t c = 2, h = 64, w = 48;  // numel = 6144, 1/N inexact
  Tensor pred(Shape{c, h, w});
  const float mul = 0.53125f;
  for (std::int64_t i = 0; i < c * h * w; ++i) {
    pred[i] = static_cast<float>(i % 97) * 0.03125f + 0.5f;
    pred[i] *= mul;
  }
  const Tensor truth = Tensor::zeros(Shape{c, h, w});
  const Tensor weights = Tensor::ones(Shape{h});
  const float loss =
      weighted_mse_loss(Var::constant(pred), truth, weights).value().item();

  // Reference replicates the loss's double accumulation (one reduce chunk
  // covers this grid, so the combine order is the plain serial order).
  double acc = 0.0;
  for (std::int64_t i = 0; i < c * h * w; ++i) {
    const double diff = static_cast<double>(pred[i]);
    acc += 1.0 * diff * diff;
  }
  const double inv_n = 1.0 / static_cast<double>(c * h * w);
  const float correct = static_cast<float>(acc * inv_n);
  const float stale = static_cast<float>(acc) * static_cast<float>(inv_n);
  EXPECT_EQ(loss, correct);
  EXPECT_NE(correct, stale);  // the input must discriminate old vs new
}

TEST(Loss, TvPriorScalesInDoubleBeforeNarrowing) {
  const std::int64_t h = 32, w = 48;  // numel = 1536, 1/N inexact
  Tensor pred(Shape{1, h, w});
  const float mul = 0.53125f;
  for (std::int64_t i = 0; i < h * w; ++i) {
    pred[i] = static_cast<float>((i * 7) % 31) * 0.0625f - 0.9375f;
    pred[i] *= mul;
  }
  const float epsilon = 1e-2f;
  const float loss =
      tv_prior_loss(Var::constant(pred), epsilon).value().item();

  static constexpr struct { std::int64_t dy, dx; } kOff[4] = {
      {0, 1}, {1, 0}, {1, 1}, {1, -1}};
  const float kWt[4] = {1.0f, 1.0f, 1.0f / std::sqrt(2.0f),
                        1.0f / std::sqrt(2.0f)};
  const double eps2 = static_cast<double>(epsilon) * epsilon;
  double acc = 0.0;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      for (int o = 0; o < 4; ++o) {
        const std::int64_t ny = y + kOff[o].dy, nx = x + kOff[o].dx;
        if (ny < 0 || ny >= h || nx < 0 || nx >= w) continue;
        const double diff =
            static_cast<double>(pred[y * w + x]) - pred[ny * w + nx];
        acc += kWt[o] * std::sqrt(diff * diff + eps2);
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(h * w);
  const float correct = static_cast<float>(acc * inv_n);
  const float stale = static_cast<float>(acc) * static_cast<float>(inv_n);
  EXPECT_EQ(loss, correct);
  EXPECT_NE(correct, stale);
}

// A copy of the two-sided gather form the TV backward used before it
// computed each pair's term once: every pixel evaluates the term of each
// pair it centers (+) and of each pair it neighbours (-), per offset.
Tensor tv_gradient_two_sided(const Tensor& pred, float epsilon) {
  const std::int64_t c = pred.dim(0), h = pred.dim(1), w = pred.dim(2);
  static constexpr struct { std::int64_t dy, dx; } kOff[4] = {
      {0, 1}, {1, 0}, {1, 1}, {1, -1}};
  const float kWt[4] = {1.0f, 1.0f, 1.0f / std::sqrt(2.0f),
                        1.0f / std::sqrt(2.0f)};
  const double eps2 = static_cast<double>(epsilon) * epsilon;
  const float inv_n =
      static_cast<float>(1.0 / static_cast<double>(pred.numel()));
  Tensor grad(pred.shape());
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* plane = pred.data().data() + ch * h * w;
    float* gplane = grad.data().data() + ch * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        double gsum = 0.0;
        for (int o = 0; o < 4; ++o) {
          const std::int64_t ny = y + kOff[o].dy, nx = x + kOff[o].dx;
          if (ny >= 0 && ny < h && nx >= 0 && nx < w) {
            const double diff =
                static_cast<double>(plane[y * w + x]) - plane[ny * w + nx];
            gsum += kWt[o] * diff / std::sqrt(diff * diff + eps2);
          }
          const std::int64_t cy = y - kOff[o].dy, cx = x - kOff[o].dx;
          if (cy >= 0 && cy < h && cx >= 0 && cx < w) {
            const double diff =
                static_cast<double>(plane[cy * w + cx]) - plane[y * w + x];
            gsum -= kWt[o] * diff / std::sqrt(diff * diff + eps2);
          }
        }
        gplane[y * w + x] = static_cast<float>(gsum) * inv_n * 1.0f;
      }
    }
  }
  return grad;
}

// The one-term-per-pair TV backward is bit-neutral: it matches the
// two-sided gather form byte for byte on Reslim's training tile shapes
// (interior and corner tiles of a 2x2 TILES split) and on degenerate
// planes, where row bands cross channel boundaries, at 1 and 4 threads.
TEST(Loss, TvGradientMatchesTwoSidedGatherBitwise) {
  const Shape shapes[] = {{2, 48, 80}, {2, 40, 72}, {8, 12, 20}, {3, 1, 70},
                          {3, 70, 1},  {1, 2, 2},   {4, 2, 2},   {1, 1, 1}};
  std::uint64_t seed = 40;
  for (const Shape& shape : shapes) {
    Rng rng(seed++);
    Tensor base = Tensor::randn(shape, rng);
    // Repeated values give zero differences, which must take the same path.
    for (std::int64_t i = 0; i + 3 < base.numel(); i += 7) {
      base[i + 1] = base[i];
    }
    // Channel 0 is a steep ramp: every pixel's terms are near +-1 and cancel
    // to within float rounding of the ramp, so a change in the order of a
    // pixel's double sum shows after the narrowing to float.
    for (std::int64_t y = 0; y < shape[1]; ++y) {
      for (std::int64_t x = 0; x < shape[2]; ++x) {
        base[y * shape[2] + x] = 1.7f * static_cast<float>(x) +
                                 0.9f * static_cast<float>(y);
      }
    }
    const Tensor expected = tv_gradient_two_sided(base, 1e-2f);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      kernels::set_max_threads(threads);
      auto pred = std::make_shared<autograd::Parameter>("pred", base.clone());
      const Var pv = Var::parameter(pred);
      autograd::backward(tv_prior_loss(pv, 1e-2f));
      const Tensor& got = pv.node()->grad;
      ASSERT_EQ(got.shape(), expected.shape());
      EXPECT_EQ(0, std::memcmp(got.data().data(), expected.data().data(),
                               static_cast<std::size_t>(got.numel()) *
                                   sizeof(float)))
          << shape.to_string() << " threads=" << threads;
    }
  }
  kernels::set_max_threads(0);
}

// The kernel-routed loss loops (reduce forward, row-parallel backward, and
// the gather-form TV gradient) must be bit-identical for any thread count.
TEST(Loss, ValuesAndGradientsInvariantToThreadCount) {
  Rng rng(11);
  const Shape shape{3, 33, 47};
  const Tensor base = Tensor::randn(shape, rng);
  const Tensor truth = Tensor::randn(shape, rng);
  const Tensor weights = data::latitude_weights(33);

  auto run = [&](std::size_t threads) {
    kernels::set_max_threads(threads);
    auto pred = std::make_shared<autograd::Parameter>("pred", base.clone());
    pred->zero_grad();
    autograd::backward(
        weighted_mse_loss(Var::parameter(pred), truth, weights));
    const float mse = weighted_mse_loss(Var::constant(base), truth, weights)
                          .value()
                          .item();
    auto pred_tv = std::make_shared<autograd::Parameter>("pred", base.clone());
    pred_tv->zero_grad();
    autograd::backward(tv_prior_loss(Var::parameter(pred_tv), 1e-2f));
    const float tv = tv_prior_loss(Var::constant(base), 1e-2f).value().item();
    kernels::set_max_threads(0);
    return std::make_tuple(mse, tv, pred->grad.clone(), pred_tv->grad.clone());
  };

  const auto [mse1, tv1, mse_grad1, tv_grad1] = run(1);
  const auto [mse4, tv4, mse_grad4, tv_grad4] = run(4);
  EXPECT_EQ(mse1, mse4);
  EXPECT_EQ(tv1, tv4);
  for (std::int64_t i = 0; i < mse_grad1.numel(); ++i) {
    ASSERT_EQ(mse_grad1[i], mse_grad4[i]) << "mse grad i=" << i;
    ASSERT_EQ(tv_grad1[i], tv_grad4[i]) << "tv grad i=" << i;
  }
}

TEST(Loss, BayesianCombinesTerms) {
  Rng rng(8);
  Tensor pred_t = Tensor::randn(Shape{1, 4, 4}, rng);
  Tensor truth = Tensor::zeros(Shape{1, 4, 4});
  Tensor weights = data::latitude_weights(4);
  BayesianLossParams params;
  params.tv_weight = 0.5f;
  Var pred = Var::constant(pred_t);
  const float combined = bayesian_loss(pred, truth, weights, params).value().item();
  const float data_term = weighted_mse_loss(pred, truth, weights).value().item();
  const float prior = tv_prior_loss(pred, params.tv_epsilon).value().item();
  EXPECT_NEAR(combined, data_term + 0.5f * prior, 1e-5f);
}

// ---- Reslim ----------------------------------------------------------------

ModelConfig tiny_reslim(float compression = 1.0f) {
  ModelConfig config = preset_tiny();
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  config.compression_ratio = compression;
  return config;
}

TEST(Reslim, ForwardShapeAndFiniteness) {
  Rng rng(9);
  ReslimModel model(tiny_reslim(), rng);
  Rng data_rng(10);
  Tensor input = Tensor::randn(Shape{5, 8, 16}, data_rng);
  Var out = model.forward(input);
  EXPECT_EQ(out.shape(), Shape({2, 32, 64}));
  for (float v : out.value().data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Reslim, ParameterCountMatchesModules) {
  Rng rng(11);
  ReslimModel model(tiny_reslim(), rng);
  EXPECT_GT(model.parameter_count(), 0);
  // Parameters are unique (no double collection).
  auto params = model.parameters();
  std::set<autograd::Parameter*> unique;
  for (const auto& p : params) unique.insert(p.get());
  EXPECT_EQ(unique.size(), params.size());
}

TEST(Reslim, CompressionReducesTrunkTokens) {
  Rng rng(12);
  ReslimModel plain(tiny_reslim(1.0f), rng);
  Rng rng2(12);
  ReslimModel compressed(tiny_reslim(4.0f), rng2);
  Rng data_rng(13);
  Tensor input = Tensor::randn(Shape{5, 16, 32}, data_rng);
  ForwardStats stats_plain, stats_compressed;
  plain.forward(input, &stats_plain);
  compressed.forward(input, &stats_compressed);
  EXPECT_EQ(stats_plain.achieved_compression, 1.0f);
  EXPECT_GE(stats_compressed.achieved_compression, 2.0f);
  EXPECT_LT(stats_compressed.tokens_after_compression,
            stats_plain.tokens_after_compression);
}

TEST(Reslim, GradientsReachAllParameters) {
  Rng rng(14);
  ReslimModel model(tiny_reslim(), rng);
  Rng data_rng(15);
  Tensor input = Tensor::randn(Shape{5, 8, 16}, data_rng);
  Tensor truth = Tensor::randn(Shape{2, 32, 64}, data_rng);
  model.zero_grad();
  Var loss = bayesian_loss(model.forward(input), truth,
                           data::latitude_weights(32));
  autograd::backward(loss);
  std::size_t touched = 0;
  for (const auto& p : model.parameters()) {
    if (p->grad.abs_max() > 0.0f) ++touched;
  }
  // Every parameter except the unused resolution-table rows gets gradient.
  EXPECT_GE(touched, model.parameters().size() - 1);
}

TEST(Reslim, TrainingStepReducesLoss) {
  Rng rng(16);
  ReslimModel model(tiny_reslim(), rng);
  Rng data_rng(17);
  Tensor input = Tensor::randn(Shape{5, 8, 16}, data_rng);
  Tensor truth = Tensor::randn(Shape{2, 32, 64}, data_rng, 0.3f);

  autograd::AdamWConfig cfg;
  cfg.lr = 2e-3f;
  cfg.weight_decay = 0.0f;
  autograd::AdamW opt(model.parameters(), cfg);
  const Tensor weights = data::latitude_weights(32);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    model.zero_grad();
    Var loss = weighted_mse_loss(model.forward(input), truth, weights);
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
    autograd::backward(loss);
    opt.step();
  }
  EXPECT_LT(last, 0.6f * first);
}

TEST(Reslim, RejectsWrongChannelCount) {
  Rng rng(18);
  ReslimModel model(tiny_reslim(), rng);
  EXPECT_THROW(model.forward(Tensor::zeros(Shape{4, 8, 16})), Error);
}

// ---- ViT baseline -----------------------------------------------------------

TEST(ViTBaseline, ForwardShape) {
  ModelConfig config = preset_tiny();
  config.architecture = Architecture::kViTBaseline;
  config.in_channels = 5;
  config.out_channels = 2;
  config.upscale = 4;
  Rng rng(19);
  ViTBaselineModel model(config, rng);
  Rng data_rng(20);
  Tensor input = Tensor::randn(Shape{5, 4, 8}, data_rng);
  Var out = model.forward(input);
  EXPECT_EQ(out.shape(), Shape({2, 16, 32}));
}

TEST(ViTBaseline, LearnsOnFixedSample) {
  ModelConfig config = preset_tiny();
  config.architecture = Architecture::kViTBaseline;
  config.in_channels = 3;
  config.out_channels = 1;
  config.upscale = 2;
  Rng rng(21);
  ViTBaselineModel model(config, rng);
  Rng data_rng(22);
  Tensor input = Tensor::randn(Shape{3, 4, 8}, data_rng);
  Tensor truth = Tensor::randn(Shape{1, 8, 16}, data_rng, 0.3f);
  autograd::AdamWConfig cfg;
  cfg.lr = 2e-3f;
  cfg.weight_decay = 0.0f;
  autograd::AdamW opt(model.parameters(), cfg);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    model.zero_grad();
    Var loss = mse_loss(model.forward(input), truth);
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
    autograd::backward(loss);
    opt.step();
  }
  EXPECT_LT(last, 0.6f * first);
}

TEST(Downscaler, InterfaceDispatchesToBothArchitectures) {
  Rng rng(23);
  ReslimModel reslim(tiny_reslim(), rng);
  ModelConfig vit_config = preset_tiny();
  vit_config.architecture = Architecture::kViTBaseline;
  vit_config.in_channels = 5;
  vit_config.out_channels = 2;
  Rng rng2(24);
  ViTBaselineModel vit(vit_config, rng2);

  Rng data_rng(25);
  Tensor input = Tensor::randn(Shape{5, 4, 8}, data_rng);
  for (const Downscaler* m : {static_cast<const Downscaler*>(&reslim),
                              static_cast<const Downscaler*>(&vit)}) {
    const Tensor out = m->predict_field(input);
    EXPECT_EQ(out.dim(0), 2);
    EXPECT_EQ(out.dim(1), 4 * m->model_config().upscale);
  }
}

}  // namespace
}  // namespace orbit2::model

namespace orbit2::model {
namespace {

TEST(ReslimWindowed, WindowedTrunkForwardAndTraining) {
  // Swin-style windowed trunk: forward shape holds, gradients flow, and a
  // short training run reduces the loss just like the global trunk.
  ModelConfig config = tiny_reslim();
  config.attention_window = 2;  // 2x2 token windows on the 4x8 grid
  Rng rng(40);
  ReslimModel model(config, rng);
  Rng data_rng(41);
  Tensor input = Tensor::randn(Shape{5, 8, 16}, data_rng);
  Tensor truth = Tensor::randn(Shape{2, 32, 64}, data_rng, 0.3f);

  Var out = model.forward(input);
  EXPECT_EQ(out.shape(), Shape({2, 32, 64}));

  autograd::AdamWConfig cfg;
  cfg.lr = 2e-3f;
  cfg.weight_decay = 0.0f;
  autograd::AdamW opt(model.parameters(), cfg);
  const Tensor weights = data::latitude_weights(32);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 15; ++step) {
    model.zero_grad();
    Var loss = weighted_mse_loss(model.forward(input), truth, weights);
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
    autograd::backward(loss);
    opt.step();
  }
  EXPECT_LT(last, 0.8f * first);
}

TEST(ReslimWindowed, IncompatibleWithCompression) {
  ModelConfig config = tiny_reslim(4.0f);
  config.attention_window = 2;
  Rng rng(42);
  ReslimModel model(config, rng);
  Rng data_rng(43);
  Tensor input = Tensor::randn(Shape{5, 16, 32}, data_rng);
  EXPECT_THROW(model.forward(input), Error);
}

}  // namespace
}  // namespace orbit2::model
