#include "model/channel_agg.hpp"

#include <cmath>

#include "core/kernels.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "tensor/matmul.hpp"

namespace orbit2::model {

using autograd::Var;

namespace {

/// The aggregation forward body, shared verbatim by the eager op and the
/// compiled replay (guaranteeing bitwise-identical results): projects keys
/// and values into `k`/`v`, computes per-position softmax weights over the
/// variable axis into `alpha`, and accumulates the mixed values into `out`.
void aggregate_channels_core(const Tensor& emb, const Tensor& q,
                             const Tensor& wk, const Tensor& wv,
                             std::int64_t num_variables,
                             std::int64_t num_positions, Tensor& k, Tensor& v,
                             Tensor& alpha, Tensor& out) {
  const std::int64_t d = emb.dim(1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, emb.dim(0), d, d,
                emb.data().data(), wk.data().data(), k.data().data());
  kernels::gemm(kernels::Trans::kN, kernels::Trans::kN, emb.dim(0), d, d,
                emb.data().data(), wv.data().data(), v.data().data());

  // Attention over the variable axis, independently per position.
  {
    const float* pk = k.data().data();
    const float* pq = q.data().data();
    float* pa = alpha.data().data();
    for (std::int64_t pos = 0; pos < num_positions; ++pos) {
      float max_score = -1e30f;
      for (std::int64_t var = 0; var < num_variables; ++var) {
        const float* row = pk + (var * num_positions + pos) * d;
        double dot = 0.0;
        for (std::int64_t f = 0; f < d; ++f) {
          dot += static_cast<double>(pq[f]) * row[f];
        }
        const float s = static_cast<float>(dot) * scale;
        pa[var * num_positions + pos] = s;
        max_score = std::max(max_score, s);
      }
      double denom = 0.0;
      for (std::int64_t var = 0; var < num_variables; ++var) {
        float& a = pa[var * num_positions + pos];
        a = std::exp(a - max_score);
        denom += a;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (std::int64_t var = 0; var < num_variables; ++var) {
        pa[var * num_positions + pos] *= inv;
      }
    }
  }

  // out[p] = sum_v alpha[v,p] * v[v*P+p].
  out.fill(0.0f);
  {
    const float* pv = v.data().data();
    const float* pa = alpha.data().data();
    float* po = out.data().data();
    for (std::int64_t var = 0; var < num_variables; ++var) {
      for (std::int64_t pos = 0; pos < num_positions; ++pos) {
        const float a = pa[var * num_positions + pos];
        const float* row = pv + (var * num_positions + pos) * d;
        float* orow = po + pos * d;
        for (std::int64_t f = 0; f < d; ++f) orow[f] += a * row[f];
      }
    }
  }
}

/// kCustom replay: identical core over planned workspaces.
void replay_aggregate_channels(const graph::GraphOp& op,
                               graph::Executor& ex) {
  aggregate_channels_core(ex.value(op.inputs[0]), ex.value(op.inputs[1]),
                          ex.value(op.inputs[2]), ex.value(op.inputs[3]),
                          op.iparams[0], op.iparams[1],
                          ex.mutable_value(op.workspaces[0]),
                          ex.mutable_value(op.workspaces[1]),
                          ex.mutable_value(op.workspaces[2]),
                          ex.mutable_value(op.output));
}

}  // namespace

Var aggregate_channels(const Var& embeddings, const Var& query, const Var& wk,
                       const Var& wv, std::int64_t num_variables,
                       std::int64_t num_positions) {
  const Tensor emb = embeddings.value();
  ORBIT2_REQUIRE(emb.rank() == 2, "aggregate_channels expects [V*P, D]");
  const std::int64_t d = emb.dim(1);
  ORBIT2_REQUIRE(emb.dim(0) == num_variables * num_positions,
                 "embedding rows " << emb.dim(0) << " vs V*P = "
                                   << num_variables * num_positions);
  ORBIT2_REQUIRE(query.value().shape() == Shape({d}), "query must be [D]");
  ORBIT2_REQUIRE(wk.value().shape() == Shape({d, d}) &&
                     wv.value().shape() == Shape({d, d}),
                 "wk/wv must be [D, D]");

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const Tensor q = query.value();
  Tensor k(Shape{emb.dim(0), d});
  Tensor v(Shape{emb.dim(0), d});
  Tensor alpha(Shape{num_variables, num_positions});
  Tensor out(Shape{num_positions, d});
  aggregate_channels_core(emb, q, wk.value(), wv.value(), num_variables,
                          num_positions, k, v, alpha, out);

  constexpr const char* kOpName = "aggregate_channels";
  graph::capture_custom(out, &replay_aggregate_channels, kOpName,
                        {&emb, &q, &wk.value(), &wv.value()},
                        {num_variables, num_positions}, {},
                        {k.shape(), v.shape(), alpha.shape()});

  const Tensor wk_value = wk.value();
  const Tensor wv_value = wv.value();
  // Backward: four [V*P, D] x [D, D] gemms (the key and value projections'
  // input and weight gradients) plus the per-row score and mix products.
  const std::int64_t rows = num_variables * num_positions;
  const std::int64_t flops = 8 * rows * d * d + 8 * rows * d;
  return autograd::make_op(
      kOpName, std::move(out), {embeddings, query, wk, wv},
      [embeddings, query, wk, wv, emb, k, v, q, alpha, wk_value, wv_value,
       num_variables, num_positions, d, scale](const Tensor& g) {
        const float* pg = g.data().data();
        const float* pa = alpha.data().data();
        const float* pv = v.data().data();
        const float* pk = k.data().data();
        const float* pq = q.data().data();

        // dV and d_alpha.
        Tensor dv = Tensor::zeros(v.shape());
        Tensor dalpha(alpha.shape());
        {
          float* pdv = dv.data().data();
          float* pda = dalpha.data().data();
          for (std::int64_t var = 0; var < num_variables; ++var) {
            for (std::int64_t pos = 0; pos < num_positions; ++pos) {
              const float a = pa[var * num_positions + pos];
              const float* grow = pg + pos * d;
              const float* vrow = pv + (var * num_positions + pos) * d;
              float* dvrow = pdv + (var * num_positions + pos) * d;
              double dot = 0.0;
              for (std::int64_t f = 0; f < d; ++f) {
                dvrow[f] = a * grow[f];
                dot += static_cast<double>(grow[f]) * vrow[f];
              }
              pda[var * num_positions + pos] = static_cast<float>(dot);
            }
          }
        }

        // Softmax backward over the variable axis -> d_scores.
        Tensor dscore(alpha.shape());
        {
          const float* pda = dalpha.data().data();
          float* pds = dscore.data().data();
          for (std::int64_t pos = 0; pos < num_positions; ++pos) {
            double dot = 0.0;
            for (std::int64_t var = 0; var < num_variables; ++var) {
              dot += static_cast<double>(pa[var * num_positions + pos]) *
                     pda[var * num_positions + pos];
            }
            for (std::int64_t var = 0; var < num_variables; ++var) {
              const std::int64_t i = var * num_positions + pos;
              pds[i] = pa[i] * (pda[i] - static_cast<float>(dot)) * scale;
            }
          }
        }

        // dq, dK from scores = scale * K q.
        Tensor dk = Tensor::zeros(k.shape());
        Tensor dq = Tensor::zeros(Shape{d});
        {
          const float* pds = dscore.data().data();
          float* pdk = dk.data().data();
          float* pdq = dq.data().data();
          for (std::int64_t var = 0; var < num_variables; ++var) {
            for (std::int64_t pos = 0; pos < num_positions; ++pos) {
              const float ds = pds[var * num_positions + pos];
              if (ds == 0.0f) continue;
              const std::int64_t row = var * num_positions + pos;
              const float* krow = pk + row * d;
              float* dkrow = pdk + row * d;
              for (std::int64_t f = 0; f < d; ++f) {
                dkrow[f] += ds * pq[f];
                pdq[f] += ds * krow[f];
              }
            }
          }
        }

        // Projection backward.
        if (query.needs_grad()) accumulate_into(query, dq);
        if (wk.needs_grad()) accumulate_into(wk, matmul_tn(emb, dk));
        if (wv.needs_grad()) accumulate_into(wv, matmul_tn(emb, dv));
        if (embeddings.needs_grad()) {
          Tensor demb = matmul_nt(dk, wk_value);
          demb.add_inplace(matmul_nt(dv, wv_value));
          accumulate_into(embeddings, demb);
        }
      },
      flops);
}

}  // namespace orbit2::model
