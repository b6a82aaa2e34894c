// Autograd engine tests: per-op finite-difference gradient checks, graph
// mechanics (reuse, accumulation), module behaviour, optimizer convergence,
// LR schedule, gradient clipping and the dynamic loss scaler.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "autograd/nn.hpp"
#include "autograd/ops.hpp"
#include "autograd/optim.hpp"
#include "core/obs.hpp"
#include "core/rng.hpp"
#include "graph/ir.hpp"
#include "model/reslim.hpp"
#include "tensor/matmul.hpp"

namespace orbit2::autograd {
namespace {

/// Checks d(sum(f(x)))/dx against central differences for every element of
/// every input parameter.
void check_gradients(const std::vector<ParamPtr>& params,
                     const std::function<Var()>& forward, float eps = 1e-2f,
                     float tol = 2e-2f) {
  for (const auto& p : params) p->zero_grad();
  Var loss = sum(forward());
  backward(loss);
  for (const auto& p : params) {
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      const float original = p->value[i];
      p->value[i] = original + eps;
      const float up = forward().value().sum();
      p->value[i] = original - eps;
      const float down = forward().value().sum();
      p->value[i] = original;
      const float fd = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad[i], fd, tol) << p->name << "[" << i << "]";
    }
  }
}

ParamPtr randn_param(const std::string& name, Shape shape, std::uint64_t seed,
                     float stddev = 1.0f) {
  Rng rng(seed);
  return std::make_shared<Parameter>(name, Tensor::randn(shape, rng, stddev));
}

// ---- engine mechanics ------------------------------------------------

TEST(Engine, LeafGradAccumulatesIntoParameter) {
  auto p = randn_param("p", Shape{3}, 1);
  Var x = Var::parameter(p);
  Var loss = sum(scale(x, 2.0f));
  backward(loss);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(p->grad[i], 2.0f);
}

TEST(Engine, DiamondGraphAccumulatesBothPaths) {
  auto p = randn_param("p", Shape{2}, 2);
  Var x = Var::parameter(p);
  // loss = sum(x*2) + sum(x*3): both paths reach the same leaf.
  Var loss = add(sum(scale(x, 2.0f)), sum(scale(x, 3.0f)));
  backward(loss);
  EXPECT_FLOAT_EQ(p->grad[0], 5.0f);
}

TEST(Engine, ReusedIntermediateNodeGradIsComplete) {
  auto p = randn_param("p", Shape{2}, 3);
  Var x = Var::parameter(p);
  Var y = scale(x, 2.0f);
  Var loss = add(sum(y), sum(mul(y, y)));  // d/dy = 1 + 2y
  backward(loss);
  for (std::int64_t i = 0; i < 2; ++i) {
    const float y_val = 2.0f * p->value[i];
    EXPECT_NEAR(p->grad[i], 2.0f * (1.0f + 2.0f * y_val), 1e-4f);
  }
}

TEST(Engine, ConstantsReceiveNoGradients) {
  auto p = randn_param("p", Shape{2}, 4);
  Var x = Var::parameter(p);
  Var c = Var::constant(Tensor::ones(Shape{2}));
  Var loss = sum(mul(x, c));
  EXPECT_NO_THROW(backward(loss));
  EXPECT_FLOAT_EQ(p->grad[0], 1.0f);
}

TEST(Engine, BackwardWithoutTrainableInputsThrows) {
  Var c = Var::constant(Tensor::ones(Shape{2}));
  Var loss = sum(c);
  EXPECT_THROW(backward(loss), Error);
}

TEST(Engine, UndefinedVarThrows) {
  Var undefined;
  EXPECT_THROW(undefined.value(), Error);
}

// ---- per-op gradient checks ----------------------------------------------

TEST(OpGrad, AddSubMulScale) {
  auto a = randn_param("a", Shape{3, 2}, 10);
  auto b = randn_param("b", Shape{3, 2}, 11);
  check_gradients({a, b}, [&] {
    Var va = Var::parameter(a);
    Var vb = Var::parameter(b);
    return add(mul(va, vb), sub(scale(va, 0.5f), vb));
  });
}

TEST(OpGrad, Gelu) {
  auto a = randn_param("a", Shape{8}, 12);
  check_gradients({a}, [&] { return gelu(Var::parameter(a)); });
}

TEST(OpGrad, Matmul) {
  auto a = randn_param("a", Shape{3, 4}, 13);
  auto b = randn_param("b", Shape{4, 2}, 14);
  check_gradients({a, b}, [&] {
    return matmul(Var::parameter(a), Var::parameter(b));
  });
}

TEST(OpGrad, LinearWithBias) {
  auto x = randn_param("x", Shape{5, 3}, 15);
  auto w = randn_param("w", Shape{3, 4}, 16);
  auto b = randn_param("b", Shape{4}, 17);
  check_gradients({x, w, b}, [&] {
    return linear(Var::parameter(x), Var::parameter(w), Var::parameter(b));
  });
}

TEST(OpGrad, ReshapeSliceConcat) {
  auto a = randn_param("a", Shape{4, 3}, 18);
  check_gradients({a}, [&] {
    Var v = Var::parameter(a);
    Var top = slice_rows(v, 0, 2);
    Var bottom = slice_rows(v, 2, 2);
    Var swapped = concat_rows({bottom, top});
    return mul(reshape(swapped, Shape{3, 4}), reshape(swapped, Shape{3, 4}));
  });
}

TEST(OpGrad, LayerNorm) {
  auto x = randn_param("x", Shape{3, 6}, 19);
  auto gamma = randn_param("gamma", Shape{6}, 20, 0.3f);
  auto beta = randn_param("beta", Shape{6}, 21, 0.3f);
  check_gradients(
      {x, gamma, beta},
      [&] {
        // Square the output so gradients are value-dependent.
        Var y = layernorm(Var::parameter(x), Var::parameter(gamma),
                          Var::parameter(beta));
        return mul(y, y);
      },
      1e-2f, 5e-2f);
}

TEST(OpGrad, MeanReduction) {
  auto a = randn_param("a", Shape{4, 4}, 22);
  for (const auto& p : {a}) p->zero_grad();
  Var loss = mean(mul(Var::parameter(a), Var::parameter(a)));
  backward(loss);
  for (std::int64_t i = 0; i < a->numel(); ++i) {
    EXPECT_NEAR(a->grad[i], 2.0f * a->value[i] / 16.0f, 1e-5f);
  }
}

TEST(OpGrad, Conv2d) {
  auto x = randn_param("x", Shape{2, 4, 4}, 23);
  auto w = randn_param("w", Shape{2, 2, 3, 3}, 24, 0.4f);
  auto b = randn_param("b", Shape{2}, 25);
  check_gradients({x, w, b}, [&] {
    Var y = conv2d(Var::parameter(x), Var::parameter(w), Var::parameter(b),
                   Conv2dSpec{3, 3, 1, 1});
    return mul(y, y);
  });
}

TEST(OpGrad, UpsampleBilinear) {
  auto x = randn_param("x", Shape{1, 3, 3}, 26);
  check_gradients({x}, [&] {
    Var y = upsample_bilinear(Var::parameter(x), 6, 6);
    return mul(y, y);
  });
}

TEST(OpGrad, ImageTokenRoundTrip) {
  auto x = randn_param("x", Shape{2, 4, 4}, 27);
  check_gradients({x}, [&] {
    Var tokens = image_to_tokens(Var::parameter(x), 2);
    Var back = tokens_to_image(tokens, 2, 4, 4, 2);
    return mul(back, back);
  });
}

TEST(OpGrad, ImageTokenPermutationIsExactInverse) {
  Rng rng(28);
  Tensor img = Tensor::randn(Shape{3, 6, 8}, rng);
  Tensor tokens = image_to_tokens_raw(img, 2);
  EXPECT_EQ(tokens.shape(), Shape({12, 12}));
  Tensor back = tokens_to_image_raw(tokens, 3, 6, 8, 2);
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(back[i], img[i]);
}

TEST(OpGrad, MultiheadAttentionNaive) {
  const std::int64_t n = 5, d = 8;
  auto x = randn_param("x", Shape{n, d}, 29, 0.5f);
  Rng rng(30);
  MultiHeadSelfAttention mha("mha", d, 2, rng);
  std::vector<ParamPtr> params = mha.parameters();
  params.push_back(x);
  check_gradients(
      params, [&] { return mha.forward(Var::parameter(x), false); }, 1e-2f,
      3e-2f);
}

TEST(OpGrad, MultiheadAttentionFlashMatchesNaiveGrads) {
  const std::int64_t n = 7, d = 8;
  auto x = randn_param("x", Shape{n, d}, 31, 0.5f);
  Rng rng(32);
  MultiHeadSelfAttention mha("mha", d, 4, rng);

  auto run = [&](bool flash) {
    for (const auto& p : mha.parameters()) p->zero_grad();
    x->zero_grad();
    Var loss = sum(mha.forward(Var::parameter(x), flash));
    backward(loss);
    std::vector<Tensor> grads;
    for (const auto& p : mha.parameters()) grads.push_back(p->grad.clone());
    grads.push_back(x->grad.clone());
    return grads;
  };
  auto g_naive = run(false);
  auto g_flash = run(true);
  ASSERT_EQ(g_naive.size(), g_flash.size());
  for (std::size_t i = 0; i < g_naive.size(); ++i) {
    for (std::int64_t j = 0; j < g_naive[i].numel(); ++j) {
      EXPECT_NEAR(g_naive[i][j], g_flash[i][j], 5e-4f) << i << "," << j;
    }
  }
}

// ---- modules ------------------------------------------------------------

TEST(Modules, ParameterCountsAreExact) {
  Rng rng(33);
  Linear lin("l", 10, 20, rng);
  EXPECT_EQ(lin.parameter_count(), 10 * 20 + 20);

  LayerNorm ln("ln", 16);
  EXPECT_EQ(ln.parameter_count(), 32);

  Mlp mlp("mlp", 8, 32, rng);
  EXPECT_EQ(mlp.parameter_count(), 8 * 32 + 32 + 32 * 8 + 8);

  MultiHeadSelfAttention mha("mha", 16, 4, rng);
  EXPECT_EQ(mha.parameter_count(), 4 * 16 * 16 + 4 * 16);

  TransformerBlock block("b", 16, 4, 64, rng);
  EXPECT_EQ(block.parameter_count(),
            2 * 32 + (4 * 16 * 16 + 4 * 16) + (16 * 64 + 64 + 64 * 16 + 16));
}

TEST(Modules, TransformerBlockPreservesShape) {
  Rng rng(34);
  TransformerBlock block("b", 16, 4, 32, rng);
  Tensor x = Tensor::randn(Shape{10, 16}, rng);
  Var y = block.forward(Var::constant(x), true);
  EXPECT_EQ(y.shape(), Shape({10, 16}));
  for (float v : y.value().data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Modules, ZeroGradClearsAll) {
  Rng rng(35);
  Linear lin("l", 4, 4, rng);
  Var loss = sum(lin.forward(Var::constant(Tensor::ones(Shape{2, 4}))));
  backward(loss);
  EXPECT_GT(lin.parameters()[0]->grad.abs_max(), 0.0f);
  lin.zero_grad();
  EXPECT_EQ(lin.parameters()[0]->grad.abs_max(), 0.0f);
}

// ---- optimizer / schedule / scaler ---------------------------------------

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2.
  auto w = randn_param("w", Shape{4}, 36);
  Tensor target = Tensor::from_vector(Shape{4}, {1.0f, -2.0f, 0.5f, 3.0f});
  AdamWConfig cfg;
  cfg.lr = 0.05f;
  cfg.weight_decay = 0.0f;
  AdamW opt({w}, cfg);
  for (int step = 0; step < 500; ++step) {
    w->zero_grad();
    Var diff = sub(Var::parameter(w), Var::constant(target));
    Var loss = sum(mul(diff, diff));
    backward(loss);
    opt.step();
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w->value[i], target[i], 1e-2f);
  }
}

TEST(AdamW, WeightDecayShrinksWeights) {
  auto w = std::make_shared<Parameter>("w", Tensor::full(Shape{1}, 10.0f));
  AdamWConfig cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.5f;
  AdamW opt({w}, cfg);
  // Zero gradient: only decay acts.
  for (int i = 0; i < 10; ++i) {
    w->zero_grad();
    opt.step();
  }
  EXPECT_LT(w->value[0], 10.0f * std::pow(1.0f - 0.1f * 0.5f, 9.0f) + 0.1f);
}

TEST(AdamW, GradScaleDividesGradients) {
  auto w = std::make_shared<Parameter>("w", Tensor::zeros(Shape{1}));
  w->grad[0] = 100.0f;
  AdamWConfig cfg;
  cfg.lr = 1.0f;
  cfg.weight_decay = 0.0f;
  AdamW a({w}, cfg);
  a.step(0.01f);  // effective grad = 1.0
  // Adam's first step moves by ~lr regardless of magnitude; check direction.
  EXPECT_LT(w->value[0], 0.0f);
}

TEST(CosineSchedule, WarmupAndDecayShape) {
  CosineSchedule sched(1.0f, 10, 110, 0.1f);
  EXPECT_NEAR(sched.lr_at(0), 0.1f, 1e-5f);  // 1/10 of base
  EXPECT_NEAR(sched.lr_at(9), 1.0f, 1e-5f);  // end of warmup
  EXPECT_NEAR(sched.lr_at(10), 1.0f, 1e-3f); // cosine start
  EXPECT_NEAR(sched.lr_at(60), 0.55f, 1e-2f); // midpoint
  EXPECT_NEAR(sched.lr_at(109), 0.1f, 1e-2f); // near the floor
  EXPECT_NEAR(sched.lr_at(200), 0.1f, 1e-6f); // past the end
}

TEST(ClipGradNorm, ScalesDownOnlyWhenAboveThreshold) {
  auto w = std::make_shared<Parameter>("w", Tensor::zeros(Shape{2}));
  w->grad[0] = 3.0f;
  w->grad[1] = 4.0f;
  const float norm = clip_grad_norm({w}, 10.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_FLOAT_EQ(w->grad[0], 3.0f);  // unchanged
  clip_grad_norm({w}, 1.0f);
  EXPECT_NEAR(std::sqrt(w->grad.sum_squares()), 1.0f, 1e-5f);
}

TEST(GradScaler, BacksOffOnNonFiniteAndRecovers) {
  GradScalerConfig cfg;
  cfg.initial_scale = 8.0f;
  cfg.growth_interval = 2;
  GradScaler scaler(cfg);
  auto w = std::make_shared<Parameter>("w", Tensor::zeros(Shape{1}));

  w->grad[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(scaler.unscale_and_check({w}));
  EXPECT_FLOAT_EQ(scaler.scale(), 4.0f);
  EXPECT_FLOAT_EQ(w->grad[0], 0.0f);  // zeroed
  EXPECT_EQ(scaler.skipped_steps(), 1);

  w->grad[0] = 1.0f;
  EXPECT_TRUE(scaler.unscale_and_check({w}));
  EXPECT_TRUE(scaler.unscale_and_check({w}));
  EXPECT_FLOAT_EQ(scaler.scale(), 8.0f);  // grew after interval
}

TEST(GradScaler, ScaleNeverBelowMinimum) {
  GradScalerConfig cfg;
  cfg.initial_scale = 2.0f;
  cfg.min_scale = 1.0f;
  GradScaler scaler(cfg);
  auto w = std::make_shared<Parameter>("w", Tensor::zeros(Shape{1}));
  for (int i = 0; i < 5; ++i) {
    w->grad[0] = std::nanf("");
    scaler.unscale_and_check({w});
  }
  EXPECT_FLOAT_EQ(scaler.scale(), 1.0f);
}

// ---- end-to-end: tiny training run -------------------------------------

TEST(Training, TinyMlpLearnsLinearMap) {
  Rng rng(40);
  Mlp mlp("mlp", 4, 16, rng);
  AdamWConfig cfg;
  cfg.lr = 5e-3f;
  cfg.weight_decay = 0.0f;
  AdamW opt(mlp.parameters(), cfg);

  // Fixed dataset: y = x @ M for a random M.
  Tensor m = Tensor::randn(Shape{4, 4}, rng, 0.5f);
  std::vector<Tensor> xs, ys;
  for (int i = 0; i < 16; ++i) {
    Tensor x = Tensor::randn(Shape{8, 4}, rng);
    xs.push_back(x);
    ys.push_back(orbit2::matmul(x, m));
  }

  float first_loss = 0.0f, last_loss = 0.0f;
  for (int epoch = 0; epoch < 60; ++epoch) {
    float epoch_loss = 0.0f;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      mlp.zero_grad();
      Var pred = mlp.forward(Var::constant(xs[i]));
      Var diff = sub(pred, Var::constant(ys[i]));
      Var loss = mean(mul(diff, diff));
      epoch_loss += loss.value().item();
      backward(loss);
      opt.step();
    }
    if (epoch == 0) first_loss = epoch_loss;
    last_loss = epoch_loss;
  }
  EXPECT_LT(last_loss, 0.1f * first_loss);
}

// ---- backward ledger ------------------------------------------------------

/// Names of the ops a capture of `model`'s forward on `input` records.
std::set<std::string> captured_op_names(const model::ReslimModel& model,
                                        const Tensor& input) {
  InferenceModeScope no_tape;
  graph::CaptureSink sink(input);
  Tensor out;
  {
    graph::CaptureScope scope(sink);
    out = model.forward(input).value();
  }
  std::set<std::string> names;
  for (const graph::GraphOp& op : sink.take(out).ops) {
    EXPECT_NE(op.name, nullptr) << "captured op without a name";
    if (op.name != nullptr) names.insert(op.name);
  }
  return names;
}

TEST(Autograd, BackwardNodeSpansNameEveryBackprop) {
  obs::set_enabled(false);
  obs::reset();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "built with ORBIT2_OBS=OFF";
  obs::set_enabled(false);
  // The plain trunk, and adaptive compression, whose tape pools tokens
  // where the capture records partition and pool ops.
  for (const float ratio : {1.0f, 2.0f}) {
    SCOPED_TRACE(::testing::Message() << "compression ratio " << ratio);
    model::ModelConfig config = model::preset_tiny();
    config.in_channels = 3;
    config.out_channels = 2;
    config.upscale = 2;
    config.compression_ratio = ratio;
    Rng rng(21);
    const model::ReslimModel model(config, rng);
    const Tensor input = Tensor::randn(Shape{3, 16, 16}, rng);
    const std::set<std::string> captured = captured_op_names(model, input);

    const std::int64_t nodes_before = tape_node_count();
    const Var out = model.forward(input);
    const std::int64_t nodes = tape_node_count() - nodes_before;
    ASSERT_GT(nodes, 0);
    obs::reset();
    obs::set_enabled(true);
    const Tensor seed = Tensor::ones(out.shape());
    backward(out, &seed);
    obs::set_enabled(false);

    std::int64_t node_spans = 0;
    for (const obs::SpanRecord& span : obs::snapshot_spans()) {
      if (span.category != "autograd" || span.name == "autograd_backward") {
        continue;
      }
      ++node_spans;
      EXPECT_FALSE(span.name.empty());
      EXPECT_EQ(captured.count(span.name), 1u)
          << "node span '" << span.name << "' is not a captured op name";
      EXPECT_EQ(span.arg_name, "flops") << span.name;
      EXPECT_GE(span.arg_value, 0) << span.name;
    }
    // Every node the forward recorded feeds the output, so each one's
    // backprop ran, once.
    EXPECT_EQ(node_spans, nodes);
  }
  obs::reset();
}

}  // namespace
}  // namespace orbit2::autograd
