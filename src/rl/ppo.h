// Proximal Policy Optimization (Schulman et al. [16]) with the paper's
// KL-penalized surrogate (Algorithm 1, line 10):
//
//   θ = argmax Ê[ (π_θ(a|s) / π_θold(a|s)) Â − β KL(π_θold(·|s), π_θ(·|s)) ]
//
// β adapts toward a KL target as in the original PPO paper; an optional
// clipped-surrogate term is available too (both variants are exercised by
// tests).  Two drivers share the machinery:
//   * PpoGaussian  — continuous actions (the adaptive mixing weights);
//   * PpoCategorical — discrete actions (the switching baseline AS).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/categorical_policy.h"
#include "rl/env.h"
#include "rl/gae.h"
#include "rl/gaussian_policy.h"
#include "util/thread_pool.h"

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
  /// Worker count for the row-tile gradient chunks of one minibatch
  /// update (util::WorkerScope convention: 0 = shared pool, 1 = serial,
  /// k > 1 = dedicated pool).  Training is bitwise identical for any value:
  /// per-chunk gradient buffers merge on the fixed chunked-reduce tree.
  int num_workers = 0;
  /// Env replicas stepping concurrently during collect() (values < 1 behave
  /// as 1).  Collection is decomposed into per-episode RNG *slots* — slot k
  /// of an iteration owns the stream derive_seed(s, k) for one seed s drawn
  /// from the trainer RNG — and slot batches concatenate in fixed slot
  /// order, cut at steps_per_iteration.  The slot decomposition never
  /// depends on this knob (it only widens the wave of Env::clone()s running
  /// on the pool), so training is bitwise identical for ANY shard count and
  /// any worker count.  Sharded episodes execute on the num_workers pool.
  int num_env_shards = 1;
};

struct PpoStats {
  std::vector<double> iteration_mean_returns;  ///< mean episode return.
  std::vector<double> iteration_kls;           ///< mean KL after updates.
  /// Mean return over the last `window` iterations (0 if none were run).
  /// `window` is clamped to >= 1 — it can never divide by zero.
  [[nodiscard]] double final_return_mean(std::size_t window = 5) const;
};

class PpoGaussian {
 public:
  explicit PpoGaussian(PpoConfig config);

  /// Trains on `env`; actions are sampled in (roughly) [-1,1]^dim — the
  /// tanh mean plus Gaussian noise, clipped — and the env scales them.
  [[nodiscard]] PpoStats train(Env& env);

  /// Incremental interface: initialize once, then run iteration chunks
  /// (callers snapshot/evaluate the policy between chunks).
  void initialize(Env& env);
  [[nodiscard]] PpoStats run_iterations(Env& env, int iterations);

  void set_progress_callback(std::function<void(int, double)> cb) {
    progress_ = std::move(cb);
  }

  [[nodiscard]] const GaussianPolicy& policy() const { return *policy_; }
  [[nodiscard]] GaussianPolicy& policy() { return *policy_; }
  [[nodiscard]] const nn::Mlp& value_net() const { return value_net_; }
  /// Moves the trained tanh mean network out (the adaptive weight net of
  /// the MixedController).
  [[nodiscard]] nn::Mlp take_mean_net();

 private:
  RolloutBatch collect(Env& env, util::Rng& rng);
  double update(const RolloutBatch& batch, const AdvantageResult& adv,
                util::Rng& rng);

  PpoConfig config_;
  std::unique_ptr<GaussianPolicy> policy_;
  nn::Mlp value_net_;
  std::unique_ptr<nn::Adam> policy_opt_, value_opt_;
  std::unique_ptr<nn::AdamVec> log_std_opt_;
  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<util::WorkerScope> workers_;  ///< resolved num_workers.
  int iterations_done_ = 0;
  std::function<void(int, double)> progress_;
};

class PpoCategorical {
 public:
  explicit PpoCategorical(PpoConfig config);

  [[nodiscard]] PpoStats train(Env& env);
  void initialize(Env& env);
  [[nodiscard]] PpoStats run_iterations(Env& env, int iterations);

  void set_progress_callback(std::function<void(int, double)> cb) {
    progress_ = std::move(cb);
  }

  [[nodiscard]] const CategoricalPolicy& policy() const { return *policy_; }
  [[nodiscard]] nn::Mlp take_logits_net();

 private:
  RolloutBatch collect(Env& env, util::Rng& rng);
  double update(const RolloutBatch& batch, const AdvantageResult& adv,
                util::Rng& rng);

  PpoConfig config_;
  std::unique_ptr<CategoricalPolicy> policy_;
  nn::Mlp value_net_;
  std::unique_ptr<nn::Adam> policy_opt_, value_opt_;
  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<util::WorkerScope> workers_;  ///< resolved num_workers.
  int iterations_done_ = 0;
  std::function<void(int, double)> progress_;
};

}  // namespace cocktail::rl
