#pragma once
// Arena executor: replays a compiled plan with zero steady-state heap
// allocations.
//
// Construction materializes the plan's arena slots and binds every planned
// value to a Tensor sharing a slot's storage. run() rebinds the runtime
// input, walks the op list dispatching into the exact same kernel bodies
// the eager forward uses, and returns a reference to the output buffer —
// so replayed results are bitwise identical to eager at every thread count.
//
// One executor services one caller at a time (values alias arena slots);
// concurrent serving pools executors per plan (see compiled.hpp).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arena.hpp"
#include "graph/plan.hpp"

namespace orbit2::graph {

class Executor {
 public:
  explicit Executor(std::shared_ptr<const Plan> plan);

  /// Replays the plan on `input` (shape must match the captured input).
  /// The returned reference aliases the dedicated output slot and stays
  /// valid until the next run() on this executor.
  const Tensor& run(const Tensor& input);

  /// Value-table access for kCustom replay functions.
  const Tensor& value(ValueId v) const {
    return values_[static_cast<std::size_t>(v)];
  }
  Tensor& mutable_value(ValueId v) {
    return values_[static_cast<std::size_t>(v)];
  }

  const Plan& plan() const { return *plan_; }
  std::int64_t arena_bytes() const { return arena_.total_bytes(); }

 private:
  void dispatch(const GraphOp& op);
  void run_elementwise(const GraphOp& op);
  void run_mhsa(const GraphOp& op);

  std::shared_ptr<const Plan> plan_;
  core::BufferArena arena_;
  std::vector<Tensor> values_;
  std::vector<const float*> stage_aux_;  // per-stage aux pointers, reused
};

}  // namespace orbit2::graph
