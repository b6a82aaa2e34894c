#include "quadtree/quadtree_ops.hpp"

namespace orbit2 {

using autograd::Var;

Var compress_tokens(const Var& tokens, std::int64_t grid_h,
                    std::int64_t grid_w,
                    const std::vector<PatchRect>& leaves) {
  Tensor value = pool_tokens(tokens.value(), grid_h, grid_w, leaves);
  return autograd::make_op(
      kPoolTokensOp, std::move(value), {tokens},
      [tokens, grid_h, grid_w, leaves](const Tensor& g) {
        autograd::accumulate_into(
            tokens, pool_tokens_adjoint(g, grid_h, grid_w, leaves));
      });
}

Var decompress_tokens(const Var& leaf_tokens, std::int64_t grid_h,
                      std::int64_t grid_w,
                      const std::vector<PatchRect>& leaves) {
  Tensor value = scatter_tokens(leaf_tokens.value(), grid_h, grid_w, leaves);
  return autograd::make_op(
      kScatterTokensOp, std::move(value), {leaf_tokens},
      [leaf_tokens, grid_h, grid_w, leaves](const Tensor& g) {
        autograd::accumulate_into(
            leaf_tokens, scatter_tokens_adjoint(g, grid_h, grid_w, leaves));
      });
}

}  // namespace orbit2
