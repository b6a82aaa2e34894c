#include "graph/plan.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "core/error.hpp"

namespace orbit2::graph {

namespace {

ValueId root_of(const std::vector<ValueInfo>& values, ValueId v) {
  while (values[static_cast<std::size_t>(v)].view_of != kNoValue) {
    v = values[static_cast<std::size_t>(v)].view_of;
  }
  return v;
}

bool is_planned(const ValueInfo& info) {
  // Leaves keep their captured storage; aliases borrow their root's slot.
  return !info.is_leaf && info.view_of == kNoValue;
}

/// Swaps the roles of `cur` and `aux` in a binary stage, for fusing a
/// consumer onto the chain that produced its aux operand. Only commutative
/// role flips preserve IEEE float semantics bit-for-bit, so every kind maps
/// to its explicit mirrored twin.
EwKind flipped(EwKind kind) {
  switch (kind) {
    case EwKind::kAddCA: return EwKind::kAddAC;
    case EwKind::kSubCA: return EwKind::kSubAC;
    case EwKind::kMulCA: return EwKind::kMulAC;
    default: ORBIT2_FAIL("flipped() on non-CA stage kind");
  }
}

bool is_full_size_binary(EwKind kind) {
  return kind == EwKind::kAddCA || kind == EwKind::kSubCA ||
         kind == EwKind::kMulCA;
}

std::vector<std::int64_t> count_uses(const CapturedGraph& g) {
  std::vector<std::int64_t> uses(g.values.size(), 0);
  for (const GraphOp& op : g.ops) {
    for (ValueId in : op.inputs) ++uses[static_cast<std::size_t>(in)];
    for (const EwStage& s : op.stages) {
      if (s.aux != kNoValue) ++uses[static_cast<std::size_t>(s.aux)];
    }
  }
  if (g.output != kNoValue) ++uses[static_cast<std::size_t>(g.output)];
  return uses;
}

void fuse_elementwise(CapturedGraph& g) {
  const std::vector<std::int64_t> uses = count_uses(g);
  std::vector<GraphOp> fused;
  fused.reserve(g.ops.size());
  for (GraphOp& op : g.ops) {
    if (op.kind == OpKind::kElementwise && !fused.empty() &&
        fused.back().kind == OpKind::kElementwise) {
      GraphOp& prev = fused.back();
      const ValueId mid = prev.output;
      const bool single_consumer =
          uses[static_cast<std::size_t>(mid)] == 1 && mid != g.output;
      if (single_consumer && op.inputs[0] == mid) {
        // Chain through input 0: stages append unchanged.
        for (std::size_t s = 0; s < op.stages.size(); ++s) {
          prev.stages.push_back(op.stages[s]);
          if (op.stages[s].aux != kNoValue) {
            prev.inputs.push_back(op.stages[s].aux);
          }
        }
        prev.output = op.output;
        continue;
      }
      if (single_consumer && op.stages.size() == 1 &&
          is_full_size_binary(op.stages[0].kind) && op.stages[0].aux == mid) {
        // Chain through the aux operand: mirror the stage so the running
        // value takes the aux role (op: in0 <> mid  ==>  aux=in0 <> cur).
        EwStage stage = op.stages[0];
        stage.kind = flipped(stage.kind);
        stage.aux = op.inputs[0];
        prev.stages.push_back(stage);
        prev.inputs.push_back(stage.aux);
        prev.output = op.output;
        continue;
      }
    }
    fused.push_back(std::move(op));
  }
  g.ops = std::move(fused);
}

}  // namespace

Plan compile_plan(CapturedGraph graph) {
  Plan plan;
  plan.raw_op_count = static_cast<std::int64_t>(graph.ops.size());
  fuse_elementwise(graph);

  const std::size_t n = graph.values.size();
  const std::int64_t num_ops = static_cast<std::int64_t>(graph.ops.size());

  // ---- Liveness: first def / last use per planned value -----------------
  std::vector<std::int64_t> last_use(n, -1);
  auto touch = [&](ValueId v, std::int64_t i) {
    last_use[static_cast<std::size_t>(root_of(graph.values, v))] = i;
  };
  for (std::int64_t i = 0; i < num_ops; ++i) {
    const GraphOp& op = graph.ops[static_cast<std::size_t>(i)];
    for (ValueId in : op.inputs) touch(in, i);
    for (const EwStage& s : op.stages) {
      if (s.aux != kNoValue) touch(s.aux, i);
    }
    for (ValueId ws : op.workspaces) touch(ws, i);
  }
  // The graph output must outlive the whole program (the caller reads it
  // after the final op).
  const ValueId out_root = root_of(graph.values, graph.output);
  last_use[static_cast<std::size_t>(out_root)] = num_ops;

  // Values dying at each op, for slot recycling.
  std::vector<std::vector<ValueId>> dies_at(static_cast<std::size_t>(num_ops));
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_planned(graph.values[v])) continue;
    const std::int64_t d = last_use[v];
    if (d >= 0 && d < num_ops) {
      dies_at[static_cast<std::size_t>(d)].push_back(static_cast<ValueId>(v));
    }
  }

  // ---- Arena layout -----------------------------------------------------
  plan.slot_of.assign(n, -1);
  // Free slots keyed by exact numel; ordered map for deterministic reuse.
  std::map<std::int64_t, std::vector<std::int32_t>> free_slots;
  auto fresh_slot = [&](std::int64_t numel) {
    const auto slot = static_cast<std::int32_t>(plan.slot_numel.size());
    plan.slot_numel.push_back(numel);
    return slot;
  };
  auto acquire = [&](std::int64_t numel) {
    auto it = free_slots.find(numel);
    if (it != free_slots.end() && !it->second.empty()) {
      const std::int32_t slot = it->second.back();
      it->second.pop_back();
      return slot;
    }
    return fresh_slot(numel);
  };

  for (std::int64_t i = 0; i < num_ops; ++i) {
    const GraphOp& op = graph.ops[static_cast<std::size_t>(i)];
    ValueId transferred = kNoValue;  // in-place donor, slot moves not frees
    if (op.kind != OpKind::kView) {
      const auto out = static_cast<std::size_t>(op.output);
      ORBIT2_CHECK(is_planned(graph.values[out]),
                   "op output must be a planned value");
      const std::int64_t out_numel = graph.values[out].shape.numel();
      if (op.output == out_root) {
        // Dedicated, never-aliased buffer for the graph output.
        plan.slot_of[out] = fresh_slot(out_numel);
      } else if (op.kind == OpKind::kElementwise) {
        // In-place elementwise: reuse input 0's slot when this op is its
        // last use and no stage reads input 0 as its aux operand. Stages
        // run one after another over the output buffer, so an aux operand
        // in that buffer would be reread after an earlier stage overwrote
        // it; every other aux is a distinct value alive past this op, so it
        // never shares the slot.
        const ValueId in0 = root_of(graph.values, op.inputs[0]);
        const auto in0_idx = static_cast<std::size_t>(in0);
        bool aux_reads_in0 = false;
        for (const EwStage& s : op.stages) {
          if (s.aux != kNoValue && root_of(graph.values, s.aux) == in0) {
            aux_reads_in0 = true;
          }
        }
        if (plan.slot_of[in0_idx] >= 0 && last_use[in0_idx] == i &&
            !aux_reads_in0 &&
            graph.values[in0_idx].shape.numel() == out_numel) {
          plan.slot_of[out] = plan.slot_of[in0_idx];
          transferred = in0;
        } else {
          plan.slot_of[out] = acquire(out_numel);
        }
      } else {
        plan.slot_of[out] = acquire(out_numel);
      }
      for (ValueId ws : op.workspaces) {
        const auto w = static_cast<std::size_t>(ws);
        plan.slot_of[w] = acquire(graph.values[w].shape.numel());
      }
    }
    // Release after allocation: a slot freed by a value dying AT this op is
    // never handed to this op's own output/workspaces (the op may read the
    // dying value at arbitrary indices while writing).
    for (ValueId dead : dies_at[static_cast<std::size_t>(i)]) {
      if (dead == transferred) continue;
      const auto d = static_cast<std::size_t>(dead);
      if (plan.slot_of[d] < 0) continue;
      free_slots[graph.values[d].shape.numel()].push_back(plan.slot_of[d]);
    }
  }

  plan.graph = std::move(graph);
  return plan;
}

std::int64_t Plan::arena_floats() const {
  std::int64_t total = 0;
  for (std::int64_t numel : slot_numel) total += numel;
  return total;
}

std::int64_t Plan::unaliased_floats() const {
  std::int64_t total = 0;
  for (std::size_t v = 0; v < graph.values.size(); ++v) {
    if (slot_of[v] >= 0) total += graph.values[v].shape.numel();
  }
  return total;
}

std::string Plan::signature() const {
  std::ostringstream out;
  out << "values " << graph.values.size() << " input " << graph.input
      << " output " << graph.output << "\n";
  for (std::size_t v = 0; v < graph.values.size(); ++v) {
    const ValueInfo& info = graph.values[v];
    out << "v" << v << " " << info.shape.to_string() << " leaf "
        << info.is_leaf << " ws " << info.is_workspace << " view "
        << info.view_of << " slot " << slot_of[v] << "\n";
  }
  for (const GraphOp& op : graph.ops) {
    out << "op " << static_cast<int>(op.kind) << " out " << op.output
        << " in";
    for (ValueId in : op.inputs) out << " " << in;
    out << " ws";
    for (ValueId ws : op.workspaces) out << " " << ws;
    for (const EwStage& s : op.stages) {
      out << " stage " << static_cast<int>(s.kind) << ":" << s.aux << ":"
          << s.scalar << ":" << s.a << ":" << s.b;
    }
    for (std::int64_t p : op.iparams) out << " i" << p;
    for (float p : op.fparams) out << " f" << p;
    for (std::int64_t p : op.perm) out << " p" << p;
    out << "\n";
  }
  out << "slots";
  for (std::int64_t numel : slot_numel) out << " " << numel;
  out << "\n";
  return out.str();
}

}  // namespace orbit2::graph
