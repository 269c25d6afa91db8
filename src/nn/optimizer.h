// First-order optimizers over Mlp parameters (and raw parameter vectors,
// e.g. the PPO policy's state-independent log-std).
#pragma once

#include "la/vec.h"
#include "nn/mlp.h"

namespace cocktail::nn {

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  /// One descent step on the network using accumulated `grads`.
  void step(Mlp& net, const Gradients& grads);

  [[nodiscard]] long step_count() const noexcept { return t_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  Gradients m_, v_;
  bool initialized_ = false;
};

/// Adam over a flat parameter vector (for non-network parameters).
class AdamVec {
 public:
  explicit AdamVec(double learning_rate, double beta1 = 0.9,
                   double beta2 = 0.999, double epsilon = 1e-8);

  void step(la::Vec& params, const la::Vec& grads);

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  la::Vec m_, v_;
};

}  // namespace cocktail::nn
