#pragma once
// Training loop (paper §III-B, §III-D): TILES replicas with one gradient
// all-reduce per optimizer step, optional BF16 mixed precision with dynamic
// loss scaling, cosine LR schedule, gradient clipping, and the Bayesian
// objective. Single-model training is the one-tile case.
//
// Each tile is owned by a model replica on its own virtual GPU (pool
// worker). Every replica downscales its halo-padded tile of each sample and
// computes the loss on the corresponding target tile; gradients are
// all-reduced (averaged) once per batch — the paper's single low-frequency
// collective — and every replica applies the identical optimizer step, so
// replicas never diverge (an invariant the tests assert).
//
// The trainer is resumable: `fit` can be interrupted at any optimizer step
// and continued from the last checkpoint with a bit-identical loss
// trajectory versus an uninterrupted run. Checkpoints (v2 full state:
// parameters, AdamW moments, GradScaler, schedule step, epoch/sample
// cursor, data-order RNG) are taken at optimizer-step boundaries; replica 0
// stands in for all replicas, which the sync invariant makes exact. Resume
// reconstructs the epoch's sample order from the saved RNG/cursor and
// replays from the boundary.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/optim.hpp"
#include "data/dataset.hpp"
#include "model/downscaler.hpp"
#include "tiles/tiles.hpp"
#include "train/checkpoint.hpp"

namespace orbit2::train {

struct TrainerConfig {
  std::int64_t epochs = 10;
  /// Samples per optimizer step (gradient accumulation).
  std::int64_t batch_size = 4;
  float lr = 1e-3f;
  std::int64_t warmup_steps = 20;
  float weight_decay = 0.01f;
  float grad_clip = 1.0f;
  /// Bayesian prior weight (0 = plain weighted MSE).
  float tv_weight = 0.005f;
  /// Emulated BF16 mixed precision: parameters are rounded to bf16 storage
  /// before each step's forward passes and the dynamic GradScaler guards
  /// each step.
  bool mixed_precision = false;
  /// Use the latitude-weighted Bayesian loss (Reslim) vs plain MSE.
  bool bayesian_loss = true;
  /// Shuffle the sample order each epoch with a stream derived from
  /// (shuffle_seed, epoch); off by default (caller-supplied order).
  bool shuffle = false;
  std::uint64_t shuffle_seed = 0x0281702ull;
  /// Directory for fit()'s latest/best checkpoint rotation; empty = no
  /// automatic checkpointing.
  std::string checkpoint_dir;
  /// Checkpoint every N optimizer steps during fit (0 = epoch end only).
  std::int64_t checkpoint_every_steps = 0;
};

struct EpochStats {
  double mean_loss = 0.0;
  double seconds = 0.0;
  std::int64_t samples = 0;
  std::int64_t skipped_steps = 0;  // AMP overflow skips
  double seconds_per_sample() const {
    return samples > 0 ? seconds / static_cast<double>(samples) : 0.0;
  }
};

/// Called after each optimizer-step boundary (after any due checkpoint was
/// written, so a hook that aborts training leaves a resumable state behind).
using StepHook =
    std::function<void(std::int64_t global_step, double batch_loss)>;

/// Builds one model replica; called once per tile with identical seeds so
/// replicas start in sync.
using ReplicaFactory = std::function<std::unique_ptr<model::Downscaler>()>;

class Trainer {
 public:
  /// TILES: one replica per tile of `tile_spec`, built by `factory` after
  /// the spec is validated, then synced to replica 0's parameters.
  Trainer(ReplicaFactory factory, TileSpec tile_spec, TrainerConfig config);

  /// One tile (`TileSpec{1, 1, 0}`) on the caller's `model`, which is
  /// trained in place and must outlive the trainer.
  Trainer(model::Downscaler& model, TrainerConfig config);

  /// Runs one epoch over `indices` of `dataset`; loss is the tile-mean of
  /// replica losses.
  EpochStats train_epoch(const data::SyntheticDataset& dataset,
                         const std::vector<std::int64_t>& indices);

  /// Full run: continues from the current (epoch, cursor) position — the
  /// start for a fresh trainer, the restored position after `load_state` —
  /// through `config.epochs` epochs; returns last epoch stats. Writes
  /// latest/best checkpoints when `config.checkpoint_dir` is set.
  EpochStats fit(const data::SyntheticDataset& dataset,
                 const std::vector<std::int64_t>& indices);

  /// Mean validation loss (no parameter updates).
  double validation_loss(const data::SyntheticDataset& dataset,
                         const std::vector<std::int64_t>& indices);

  /// Writes a full-state v2 checkpoint of replica 0 (parameters, moments,
  /// scaler, step, epoch/sample cursor, data-order RNG) atomically to
  /// `path`.
  void save_state(const std::string& path) const;

  /// Restores a full-state checkpoint into every replica (load into replica
  /// 0, broadcast parameters, copy optimizer state); the next `fit` resumes
  /// bit-identically from the saved optimizer-step boundary.
  void load_state(const std::string& path);

  /// Observes optimizer-step boundaries (testing/logging).
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  /// Tiled inference: each replica downscales its tile, cores are stitched.
  Tensor predict(const Tensor& input) const;

  /// Max |param difference| across replicas (0 when in sync).
  float replica_divergence() const;

  std::size_t replica_count() const { return replicas_.size(); }
  model::Downscaler& replica(std::size_t i) { return *replicas_[i]; }
  /// Replica i's AdamW (all replicas hold identical state in sync runs;
  /// elastic tests compare moments across layouts through this).
  const autograd::AdamW& optimizer(std::size_t i) const {
    return *optimizers_[i];
  }
  std::int64_t global_step() const { return global_step_; }
  std::int64_t epoch() const { return epoch_; }
  std::int64_t sample_cursor() const { return cursor_; }

 private:
  /// Validates the spec and config; the public constructors then attach
  /// their replicas.
  Trainer(TileSpec tile_spec, TrainerConfig config);
  void attach_replicas(std::vector<model::Downscaler*> replicas);
  /// Replica `tile`'s forward pass and loss on its tile of `sample`.
  autograd::Var tile_loss(std::size_t tile, const data::Sample& sample,
                          std::int64_t upscale) const;
  void zero_grads();
  /// Seed stream that generates epoch `epoch`'s shuffle order.
  Rng order_rng_for_epoch(std::int64_t epoch) const;
  std::vector<std::int64_t> epoch_order(
      const std::vector<std::int64_t>& indices, Rng& order_rng) const;
  /// Trains over `order[start..]`; updates the sample cursor at each
  /// optimizer-step boundary and writes due checkpoints.
  EpochStats run_samples(const data::SyntheticDataset& dataset,
                         const std::vector<std::int64_t>& order,
                         std::int64_t start, CheckpointManager* manager);
  TrainState snapshot_state() const;

  TileSpec tile_spec_;
  TrainerConfig config_;
  /// Replicas built by the factory; empty when the model is borrowed.
  std::vector<std::unique_ptr<model::Downscaler>> owned_;
  std::vector<model::Downscaler*> replicas_;
  std::vector<std::vector<autograd::ParamPtr>> replica_params_;
  std::vector<std::unique_ptr<autograd::AdamW>> optimizers_;
  autograd::CosineSchedule schedule_;
  autograd::GradScaler scaler_;
  std::int64_t global_step_ = 0;
  std::int64_t epoch_ = 0;
  std::int64_t cursor_ = 0;  // samples consumed in the current epoch
  std::int64_t steps_since_checkpoint_ = 0;
  /// Order stream for the epoch currently (or last) trained; checkpointed
  /// so resume reconstructs the same epoch order without re-deriving it.
  RngState epoch_rng_state_{};
  /// Set by load_state when resuming mid-epoch: the saved order stream for
  /// the interrupted epoch.
  std::optional<RngState> pending_order_rng_;
  StepHook step_hook_;
};

}  // namespace orbit2::train
