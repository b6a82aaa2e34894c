#pragma once
// TILES training is train::Trainer (trainer.hpp). This alias stays only
// because perfbench/train_tiles.cpp names the old type; it goes once that
// file says Trainer.

#include "train/trainer.hpp"

namespace orbit2::train {

using TilesTrainer = Trainer;

}  // namespace orbit2::train
