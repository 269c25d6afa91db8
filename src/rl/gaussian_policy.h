// Diagonal Gaussian policy for continuous actions.
//
// The mean is a tanh-headed MLP (outputs in [-1, 1]; the environment scales
// to its native range, e.g. the mixing weights' ±AB), and the log standard
// deviation is a state-independent learned vector.  Supplies everything PPO
// needs: sampling with log-probabilities, analytic gradients of log π and
// of the diagonal-Gaussian KL divergence used in the paper's penalized
// surrogate objective.
//
// Concurrency contract: Ppo<GaussianPolicy>::update fans its row-tile
// gradient chunks across the pool, so every const method here (mean,
// log_prob, kl_from, the *_cotangent helpers, the entropy gradient) runs
// concurrently from chunk workers.  They must stay free of hidden mutable
// state: they read the network and log_std and write only through the
// caller-provided outputs and accumulators.  The mean-net forward/backward
// of a chunk runs on the caller's own Mlp::Tape (one per thread); mean()
// runs on Mlp::forward's thread-local scratch.
#pragma once

#include <cstdint>

#include "la/vec.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace cocktail::rl {

class GaussianPolicy {
 public:
  /// Builds a tanh-headed mean network [state_dim, hidden..., action_dim]
  /// and initializes log_std to log(initial_std).  Throws
  /// std::invalid_argument unless initial_std is finite and positive.
  GaussianPolicy(std::size_t state_dim,
                 const std::vector<std::size_t>& hidden,
                 std::size_t action_dim, double initial_std,
                 std::uint64_t seed);

  [[nodiscard]] std::size_t state_dim() const { return mean_net_.input_dim(); }
  [[nodiscard]] std::size_t action_dim() const {
    return mean_net_.output_dim();
  }

  /// Deterministic action (the mean) — used at evaluation time and exported
  /// into the MixedController.
  [[nodiscard]] la::Vec mean(const la::Vec& s) const;

  struct Sample {
    la::Vec action;
    double log_prob = 0.0;
  };
  /// Draws a ~ N(mean(s), diag(exp(log_std))²).
  [[nodiscard]] Sample sample(const la::Vec& s, util::Rng& rng) const;

  /// log π(a | s).
  [[nodiscard]] double log_prob(const la::Vec& s, const la::Vec& a) const;
  /// log π(a | s) from the mean-net output mu = mean(s) (action_dim()
  /// doubles): the one log-density formula, which log_prob() and sample()
  /// wrap.
  [[nodiscard]] double log_prob_of_mean(const double* mu,
                                        const la::Vec& a) const;

  /// KL( N(mu_old, std_old) || N(mean(s), std) ) for diagonal Gaussians.
  [[nodiscard]] double kl_from(const la::Vec& mu_old, const la::Vec& std_old,
                               const la::Vec& s) const;

  /// The PPO loss cotangents at the mean-net output mu = mean(s)
  /// (action_dim() doubles).  Each writes dLoss/dmu to `dl_dmu`
  /// (action_dim() doubles) and adds dLoss/dlog_std to `log_std_grads`;
  /// backpropagating dl_dmu through the mean net gives the network part.
  ///
  /// Loss -coef * log π(a|s).  Positive `coef` therefore *increases*
  /// log-prob when the optimizer descends — callers pass
  /// coef = ratio * advantage.
  void log_prob_cotangent(const double* mu, const la::Vec& a, double coef,
                          double* dl_dmu, la::Vec& log_std_grads) const;
  /// Loss coef * KL(old || new) for the *new* (current) policy.
  void kl_cotangent(const double* mu, const la::Vec& mu_old,
                    const la::Vec& std_old, double coef, double* dl_dmu,
                    la::Vec& log_std_grads) const;

  /// Policy entropy (state-independent for a diagonal Gaussian).
  [[nodiscard]] double entropy() const;
  /// Accumulates d(-coef * entropy)/d log_std (entropy bonus).
  void accumulate_entropy_gradient(double coef, la::Vec& log_std_grads) const;

  [[nodiscard]] const nn::Mlp& mean_net() const noexcept { return mean_net_; }
  [[nodiscard]] nn::Mlp& mean_net() noexcept { return mean_net_; }
  [[nodiscard]] const la::Vec& log_std() const noexcept { return log_std_; }
  [[nodiscard]] la::Vec& log_std() noexcept { return log_std_; }
  [[nodiscard]] la::Vec stddev() const;

 private:
  nn::Mlp mean_net_;
  la::Vec log_std_;
};

}  // namespace cocktail::rl
