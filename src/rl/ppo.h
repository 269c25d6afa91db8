// Proximal Policy Optimization (Schulman et al. [16]) with the paper's
// KL-penalized surrogate (Algorithm 1, line 10):
//
//   θ = argmax Ê[ (π_θ(a|s) / π_θold(a|s)) Â − β KL(π_θold(·|s), π_θ(·|s)) ]
//
// β adapts toward a KL target as in the original PPO paper; an optional
// clipped-surrogate term is available too (both variants are exercised by
// tests).  One driver, rl::Ppo<Policy>, serves both action spaces:
//   * Ppo<GaussianPolicy> (PpoGaussian)       — continuous actions (the
//     adaptive mixing weights AW);
//   * Ppo<CategoricalPolicy> (PpoCategorical) — discrete actions (the
//     switching baseline AS and the finite-weighted baseline FW).
// The head-specific steps (building the policy, recording a sampled action,
// freezing π_old, a sample's cotangent rows, the Gaussian log-std step and
// KL(π_old‖π)) live in one small adapter per head in ppo.cpp.
//
// Collection is serial and slot-ordered on the caller's env: each iteration
// draws one seed s from the trainer RNG, episode slot k runs on the stream
// derive_seed(s, k), and the batch stops mid-episode at steps_per_iteration.
// The minibatch updates run on util::ThreadPool::shared() as row-tile
// chunks whose gradients merge on the fixed chunked-reduce tree, so
// training is bitwise identical for any pool width.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/categorical_policy.h"
#include "rl/env.h"
#include "rl/gae.h"
#include "rl/gaussian_policy.h"

namespace cocktail::rl {

struct PpoConfig {
  std::vector<std::size_t> policy_hidden = {64, 64};
  std::vector<std::size_t> value_hidden = {64, 64};
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double policy_lr = 3e-4;
  double value_lr = 1e-3;
  int iterations = 60;          ///< outer loop count (epochs in Alg. 1).
  int steps_per_iteration = 2048;
  int update_epochs = 8;        ///< SGD passes per collected batch.
  /// Samples per SGD step; must be positive (initialize() throws
  /// std::invalid_argument on 0, which would never advance an epoch).
  std::size_t minibatch = 64;
  double kl_penalty_beta = 1.0;  ///< β, adapted toward kl_target.
  double kl_target = 0.01;
  bool use_clip = false;        ///< add clipped-surrogate term.
  double clip_epsilon = 0.2;
  double entropy_coef = 0.0;
  double initial_std = 0.5;     ///< Gaussian exploration std (continuous).
  double grad_clip = 5.0;
  std::uint64_t seed = 2;
};

struct PpoStats {
  std::vector<double> iteration_mean_returns;  ///< mean episode return.
  std::vector<double> iteration_kls;           ///< mean KL after updates.
  /// Mean return over the last `window` iterations (0 if none were run).
  /// `window` is clamped to >= 1 — it can never divide by zero.
  [[nodiscard]] double final_return_mean(std::size_t window = 5) const;
};

template <class Policy>
class Ppo {
 public:
  explicit Ppo(PpoConfig config);

  /// initialize() then run_iterations(config.iterations).  A Gaussian head
  /// samples actions around its tanh mean and sends them to the env clipped
  /// to [-1,1]^dim (the env scales them); a categorical head sends the
  /// choice index as a one-element vector.
  [[nodiscard]] PpoStats train(Env& env);

  /// Incremental interface: initialize once, then run iteration chunks
  /// (callers snapshot/evaluate the policy between chunks).
  void initialize(Env& env);
  [[nodiscard]] PpoStats run_iterations(Env& env, int iterations);

  [[nodiscard]] const Policy& policy() const { return *policy_; }
  [[nodiscard]] Policy& policy() { return *policy_; }
  [[nodiscard]] const nn::Mlp& value_net() const { return value_net_; }

 private:
  RolloutBatch collect(Env& env);
  double update(const RolloutBatch& batch, const AdvantageResult& adv);

  PpoConfig config_;
  std::unique_ptr<Policy> policy_;
  nn::Mlp value_net_;
  std::unique_ptr<nn::Adam> policy_opt_, value_opt_;
  std::unique_ptr<nn::AdamVec> log_std_opt_;  ///< used by the Gaussian head.
  std::unique_ptr<util::Rng> rng_;
};

extern template class Ppo<GaussianPolicy>;
extern template class Ppo<CategoricalPolicy>;

using PpoGaussian = Ppo<GaussianPolicy>;
using PpoCategorical = Ppo<CategoricalPolicy>;

}  // namespace cocktail::rl
