#pragma once
// Deterministic fault-injection harness: drives kill -> re-plan -> reshard
// -> resume cycles end-to-end against the real trainers.
//
// "Workers" are simulated by the kernel layer's thread cap
// (ORBIT2_NUM_THREADS / kernels::set_max_threads): a phase running under N
// threads stands in for N workers, and because every kernel is bit-
// identical across thread counts, the only state that actually has to
// survive a shrink/grow is the checkpoint — which reshard.hpp moves
// between layouts byte-exactly. The kill itself is a KillSignal thrown
// from the optimizer-step hook, which fires *after* any due checkpoint
// write, so the state left on disk is exactly what a SIGKILL at that
// boundary would leave.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "train/trainer.hpp"

namespace orbit2::elastic {

/// Thrown by KillSwitch at the scheduled optimizer step (SIGKILL stand-in).
struct KillSignal {
  std::int64_t step = 0;
};

/// Deterministic kill schedule over optimizer steps: records the loss
/// stream per step and throws KillSignal when `kill_at_step` is reached.
/// A negative step never fires (pure recorder). Must outlive the returned
/// hook.
class KillSwitch {
 public:
  explicit KillSwitch(std::int64_t kill_at_step)
      : kill_at_step_(kill_at_step) {}

  /// StepHook adapter for Trainer::set_step_hook.
  train::StepHook hook();

  bool fired() const { return fired_; }
  const std::map<std::int64_t, double>& losses() const { return losses_; }

 private:
  std::int64_t kill_at_step_;
  bool fired_ = false;
  std::map<std::int64_t, double> losses_;
};

/// Moves a full checkpoint through shard layouts on disk: load `full_in`,
/// split into `from_workers` shard files at `work_prefix`, reshard the
/// re-read shard files to `to_workers`, write those, then merge the
/// re-read target shards into a full checkpoint at `full_out`. Every hop
/// round-trips real files, so the resumed trainer only ever sees bytes
/// that crossed the sharded layout.
void reshard_through_layouts(const std::string& full_in,
                             const std::string& work_prefix,
                             std::int64_t from_workers,
                             std::int64_t to_workers,
                             const std::string& full_out);

struct ElasticScenario {
  /// Optimizer step at which the training phase is killed.
  std::int64_t kill_at_step = 0;
  /// Simulated worker counts before and after the fault.
  std::int64_t from_workers = 0;
  std::int64_t to_workers = 0;
  /// Full checkpoint the killed phase leaves behind (e.g. latest.o2ck).
  std::string checkpoint_path;
  /// Prefix for intermediate shard files.
  std::string work_prefix;
  /// Merged full checkpoint the resume phase loads.
  std::string resume_path;
};

struct ElasticOutcome {
  bool killed = false;
  std::int64_t killed_at_step = 0;
  /// Combined per-step batch-loss stream: pre-kill steps from the killed
  /// phase, later steps from the resumed phase (resume wins on overlap).
  std::map<std::int64_t, double> losses;
};

/// Runs the full cycle: pins `from_workers` kernel threads and calls
/// `train_phase` with a kill hook (KillSignal expected at kill_at_step),
/// reshards checkpoint_path through the from->to layouts into resume_path,
/// pins `to_workers` threads, and calls `resume_phase(resume_path, hook)`
/// with a recording hook. Thread caps are only changed between phases
/// (the set_max_threads contract). The thread cap is left at `to_workers`
/// on return.
ElasticOutcome run_kill_reshard_resume(
    const ElasticScenario& scenario,
    const std::function<void(train::StepHook)>& train_phase,
    const std::function<void(const std::string&, train::StepHook)>&
        resume_phase);

}  // namespace orbit2::elastic
