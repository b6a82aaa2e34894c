#pragma once
// Planning pass over a captured inference graph.
//
// compile_plan() runs three deterministic passes:
//   1. Fusion: consecutive kElementwise ops whose intermediate value has a
//      single consumer collapse into one multi-stage op (the intermediate is
//      eliminated and never materialized).
//   2. Liveness: first-def / last-use indices per value, views unioned onto
//      the value they alias.
//   3. Arena layout: each non-leaf value gets a buffer slot; slots are
//      recycled between values of EQUAL numel whose lifetimes do not
//      overlap (equal-size aliasing keeps every tensor's storage exactly
//      shape-sized, which in-place tensor ops rely on). The graph output
//      owns a dedicated slot that is never aliased. An elementwise chain
//      takes its dying input 0's slot unless a stage reads input 0 as aux.
//
// The plan is a pure function of the captured graph: identical captures
// yield byte-identical signatures.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/ir.hpp"

namespace orbit2::graph {

struct Plan {
  CapturedGraph graph;  // post-fusion op list
  /// Per value: arena slot index, or -1 (leaf, runtime input, or alias).
  std::vector<std::int32_t> slot_of;
  /// Per slot: element count of the buffer backing it.
  std::vector<std::int64_t> slot_numel;
  std::int64_t raw_op_count = 0;  // ops before fusion

  std::int64_t num_ops() const {
    return static_cast<std::int64_t>(graph.ops.size());
  }
  std::int64_t arena_floats() const;
  /// Sum of every planned value's numel — what eager allocation would cost.
  std::int64_t unaliased_floats() const;

  /// Deterministic text dump of ops, stages, and slot layout. Two plans
  /// compiled from equivalent captures compare equal stringwise.
  std::string signature() const;
};

Plan compile_plan(CapturedGraph graph);

}  // namespace orbit2::graph
