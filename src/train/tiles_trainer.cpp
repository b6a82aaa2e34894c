#include "train/tiles_trainer.hpp"

#include <algorithm>

#include "core/kernels.hpp"
#include "core/obs.hpp"
#include "core/timer.hpp"
#include "data/generator.hpp"
#include "model/loss.hpp"

namespace orbit2::train {

using autograd::Var;

TilesTrainer::TilesTrainer(ReplicaFactory factory, TileSpec tile_spec,
                           TrainerConfig config)
    : tile_spec_(tile_spec),
      config_(config),
      schedule_(config.lr, config.warmup_steps,
                std::max<std::int64_t>(1, config.epochs * 1000),
                0.05f * config.lr) {
  const auto tiles = static_cast<std::size_t>(tile_spec.tile_count());
  ORBIT2_REQUIRE(tiles >= 1, "need at least one tile");
  ORBIT2_REQUIRE(config_.batch_size >= 1, "batch size must be >= 1");
  replicas_.reserve(tiles);
  for (std::size_t i = 0; i < tiles; ++i) {
    replicas_.push_back(factory());
    replica_params_.push_back(replicas_.back()->parameters());
    autograd::AdamWConfig adam;
    adam.lr = config_.lr;
    adam.weight_decay = config_.weight_decay;
    optimizers_.push_back(
        std::make_unique<autograd::AdamW>(replica_params_.back(), adam));
  }
  // Ensure bit-identical starting points even if the factory is stochastic.
  broadcast_parameters(replica_params_.front(), replica_params_);
}

Rng TilesTrainer::order_rng_for_epoch(std::int64_t epoch) const {
  std::uint64_t sm = config_.shuffle_seed ^
                     (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(epoch + 1));
  return Rng(splitmix64(sm));
}

std::vector<std::int64_t> TilesTrainer::epoch_order(
    const std::vector<std::int64_t>& indices, Rng& order_rng) const {
  std::vector<std::int64_t> order = indices;
  if (!config_.shuffle) return order;
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(order_rng.uniform_index(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

TrainState TilesTrainer::snapshot_state() const {
  TrainState state;
  state.global_step = global_step_;
  state.epoch = epoch_;
  state.sample_cursor = cursor_;
  state.optimizer_steps = optimizers_.front()->steps_taken();
  state.has_rng = config_.shuffle;
  state.data_rng = epoch_rng_state_;
  return state;
}

void TilesTrainer::save_state(const std::string& path) const {
  // Replica 0 stands in for all replicas: the sync invariant (identical
  // start, all-reduced gradients, identical steps) keeps them bit-equal.
  const TrainState state = snapshot_state();
  save_checkpoint(path, *replicas_.front(), optimizers_.front().get(), &state);
}

void TilesTrainer::load_state(const std::string& path) {
  const CheckpointInfo info = load_checkpoint(path, *replicas_.front(),
                                              optimizers_.front().get());
  ORBIT2_REQUIRE(info.has_train_state,
                 "checkpoint " << path << " carries no train state");
  broadcast_parameters(replica_params_.front(), replica_params_);
  for (std::size_t t = 1; t < optimizers_.size(); ++t) {
    optimizers_[t]->restore(optimizers_.front()->steps_taken(),
                            optimizers_.front()->first_moments(),
                            optimizers_.front()->second_moments());
  }
  global_step_ = info.state.global_step;
  epoch_ = info.state.epoch;
  cursor_ = info.state.sample_cursor;
  steps_since_checkpoint_ = 0;
  pending_order_rng_.reset();
  if (info.state.has_rng && cursor_ > 0) {
    pending_order_rng_ = info.state.data_rng;
  }
  for (auto& params : replica_params_) {
    for (const auto& p : params) p->zero_grad();
  }
}

EpochStats TilesTrainer::run_samples(const data::SyntheticDataset& dataset,
                                     const std::vector<std::int64_t>& order,
                                     std::int64_t start,
                                     CheckpointManager* manager) {
  EpochStats stats;
  WallTimer timer;
  const std::int64_t upscale = dataset.config().upscale;
  const auto tiles = static_cast<std::int64_t>(replicas_.size());
  const auto total = static_cast<std::int64_t>(order.size());

  double loss_sum = 0.0;
  for (auto& params : replica_params_) {
    for (const auto& p : params) p->zero_grad();
  }

  // Each optimizer step is two passes over the shared kernel-layer pool,
  // one task per sample and then one task per tile; a trailing partial
  // batch is just a shorter last step.
  std::vector<data::Sample> batch;
  std::vector<double> tile_losses;
  for (std::int64_t first = start; first < total;
       first += config_.batch_size) {
    const std::int64_t n = std::min(config_.batch_size, total - first);
    batch.assign(static_cast<std::size_t>(n), data::Sample{});
    kernels::parallel_for(n, 1, [&](std::int64_t s0, std::int64_t s1) {
      for (std::int64_t s = s0; s < s1; ++s) {
        ORBIT2_OBS_SPAN("train/data", "train");
        batch[static_cast<std::size_t>(s)] =
            dataset.sample(order[static_cast<std::size_t>(first + s)]);
      }
    });

    // Replica t trains on its tile of every sample in batch order, so its
    // gradients accumulate in the same order as a sample-at-a-time loop.
    // Sample s's loss on tile t lands in slot s * tiles + t and the slots
    // are reduced in tile order after the join, so the reported loss is
    // bit-deterministic across runs (a completion-order atomic sum would
    // not be).
    tile_losses.assign(static_cast<std::size_t>(n * tiles), 0.0);
    kernels::parallel_for(tiles, 1, [&](std::int64_t t0, std::int64_t t1) {
      for (std::int64_t ti = t0; ti < t1; ++ti) {
        const auto t = static_cast<std::size_t>(ti);
        for (std::int64_t s = 0; s < n; ++s) {
          const data::Sample& sample = batch[static_cast<std::size_t>(s)];
          // HR target tiles correspond to the padded input regions x
          // upscale.
          const TileRegion region = partition_tiles(
              sample.input.dim(1), sample.input.dim(2), tile_spec_)[t];
          const Tensor tile_input = extract_tile(sample.input, region);
          TileRegion hr_region;
          hr_region.pad_y0 = region.pad_y0 * upscale;
          hr_region.pad_x0 = region.pad_x0 * upscale;
          hr_region.pad_h = region.pad_h * upscale;
          hr_region.pad_w = region.pad_w * upscale;
          const Tensor tile_target = extract_tile(sample.target, hr_region);

          // Forward/backward spans land on whichever pool thread ran the
          // tile; tests assert counts and tile args, not cross-thread
          // order.
          Var loss;
          {
            ORBIT2_OBS_SPAN_ARG("train/forward", "train", "tile", ti);
            Var prediction = replicas_[t]->downscale(tile_input);
            if (config_.bayesian_loss) {
              model::BayesianLossParams params;
              params.tv_weight = config_.tv_weight;
              loss = model::bayesian_loss(
                  prediction, tile_target,
                  data::latitude_weights(tile_target.dim(1)), params);
            } else {
              loss = model::mse_loss(prediction, tile_target);
            }
          }
          tile_losses[static_cast<std::size_t>(s * tiles + ti)] =
              loss.value().item();
          {
            ORBIT2_OBS_SPAN_ARG("train/backward", "train", "tile", ti);
            autograd::backward(loss);
          }
        }
      }
    });

    double batch_loss_sum = 0.0;
    for (std::int64_t s = 0; s < n; ++s) {
      double sample_loss = 0.0;
      for (std::int64_t t = 0; t < tiles; ++t) {
        sample_loss += tile_losses[static_cast<std::size_t>(s * tiles + t)];
      }
      const double mean_tile_loss = sample_loss / static_cast<double>(tiles);
      loss_sum += mean_tile_loss;
      batch_loss_sum += mean_tile_loss;
    }
    stats.samples += n;
    const double batch_loss = batch_loss_sum / static_cast<double>(n);

    // One gradient all-reduce + identical per-replica steps, then advance
    // the resumable cursor to this step boundary.
    {
      // Pre-increment global step: a resumed run's first optimizer span
      // carries the restored step.
      ORBIT2_OBS_SPAN_ARG("train/optimizer", "train", "global_step",
                          global_step_);
      allreduce_mean_gradients(replica_params_);
      const float grad_scale = 1.0f / static_cast<float>(n);
      const float lr = schedule_.lr_at(global_step_);
      for (std::size_t t = 0; t < replicas_.size(); ++t) {
        if (config_.grad_clip > 0.0f) {
          autograd::clip_grad_norm(replica_params_[t],
                                   config_.grad_clip / grad_scale);
        }
        optimizers_[t]->set_lr(lr);
        optimizers_[t]->step(grad_scale);
        for (const auto& p : replica_params_[t]) p->zero_grad();
      }
      ++global_step_;
    }
    cursor_ = first + n;
    if (manager != nullptr && config_.checkpoint_every_steps > 0 &&
        ++steps_since_checkpoint_ >= config_.checkpoint_every_steps) {
      steps_since_checkpoint_ = 0;
      ORBIT2_OBS_SPAN("train/checkpoint", "train");
      manager->save(*replicas_.front(), optimizers_.front().get(),
                    snapshot_state(), batch_loss);
    }
    if (step_hook_) step_hook_(global_step_, batch_loss);
  }

  stats.mean_loss = stats.samples > 0
                        ? loss_sum / static_cast<double>(stats.samples)
                        : 0.0;
  stats.seconds = timer.seconds();
  return stats;
}

EpochStats TilesTrainer::train_epoch(const data::SyntheticDataset& dataset,
                                     const std::vector<std::int64_t>& indices) {
  return run_samples(dataset, indices, 0, nullptr);
}

EpochStats TilesTrainer::fit(const data::SyntheticDataset& dataset,
                             const std::vector<std::int64_t>& indices) {
  std::unique_ptr<CheckpointManager> manager;
  if (!config_.checkpoint_dir.empty()) {
    manager = std::make_unique<CheckpointManager>(config_.checkpoint_dir);
  }
  EpochStats last;
  while (epoch_ < config_.epochs) {
    ORBIT2_OBS_SPAN_ARG("train/epoch", "train", "epoch", epoch_);
    Rng order_rng = pending_order_rng_.has_value()
                        ? [&] {
                            Rng restored(0);
                            restored.set_state(*pending_order_rng_);
                            return restored;
                          }()
                        : order_rng_for_epoch(epoch_);
    pending_order_rng_.reset();
    epoch_rng_state_ = order_rng.state();
    const std::vector<std::int64_t> order = epoch_order(indices, order_rng);
    ORBIT2_REQUIRE(cursor_ <= static_cast<std::int64_t>(order.size()),
                   "resume cursor " << cursor_ << " beyond epoch of "
                                    << order.size() << " samples");
    last = run_samples(dataset, order, cursor_, manager.get());
    ++epoch_;
    cursor_ = 0;
    if (manager != nullptr) {
      ORBIT2_OBS_SPAN("train/checkpoint", "train");
      manager->save(*replicas_.front(), optimizers_.front().get(),
                    snapshot_state(), last.mean_loss);
      steps_since_checkpoint_ = 0;
    }
  }
  return last;
}

Tensor TilesTrainer::predict(const Tensor& input) const {
  const std::int64_t upscale = replicas_.front()->model_config().upscale;
  return tiled_apply(input, tile_spec_, upscale,
                     [this](std::size_t tile, const Tensor& padded) {
                       return replicas_[tile]->predict_field(padded);
                     });
}

float TilesTrainer::replica_divergence() const {
  if (replica_params_.size() < 2) return 0.0f;
  return max_parameter_divergence(replica_params_);
}

}  // namespace orbit2::train
