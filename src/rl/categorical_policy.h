// Softmax (categorical) policy over a finite action set.
//
// Drives the switching baseline AS: the action is *which expert* controls
// the plant this sampling period — exactly the discrete adaptation space of
// [4] that the paper's mixing action space strictly contains.
//
// Concurrency contract: Ppo<CategoricalPolicy>::update fans its row-tile
// gradient chunks across the pool, so every const method here
// (probabilities, log_prob, kl_from, the *_cotangent helpers) runs
// concurrently from chunk workers.  They must stay free of hidden mutable
// state: they read the network and write only through the caller-provided
// outputs and accumulators.  The logits-net forward/backward of a chunk
// runs on the caller's own Mlp::Tape (one per thread); probabilities() runs
// on Mlp::forward's thread-local scratch.
#pragma once

#include <cstdint>

#include "la/vec.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace cocktail::rl {

class CategoricalPolicy {
 public:
  /// Logit network [state_dim, hidden..., num_actions], identity head.
  /// Throws std::invalid_argument for num_actions == 0.
  CategoricalPolicy(std::size_t state_dim,
                    const std::vector<std::size_t>& hidden,
                    std::size_t num_actions, std::uint64_t seed);

  [[nodiscard]] std::size_t state_dim() const {
    return logits_net_.input_dim();
  }
  [[nodiscard]] std::size_t num_actions() const {
    return logits_net_.output_dim();
  }

  /// Action probabilities p(· | s) (softmax of the logits).
  [[nodiscard]] la::Vec probabilities(const la::Vec& s) const;

  struct Sample {
    std::size_t action = 0;
    double log_prob = 0.0;
  };
  [[nodiscard]] Sample sample(const la::Vec& s, util::Rng& rng) const;

  [[nodiscard]] double log_prob(const la::Vec& s, std::size_t action) const;
  /// log p(action) from p = probabilities(s): the one log-probability
  /// formula, which log_prob() and sample() wrap.  Throws
  /// std::invalid_argument for an action outside p.
  [[nodiscard]] static double log_prob_of(const la::Vec& p,
                                          std::size_t action);
  /// Greedy (argmax) action — evaluation-time behaviour of AS.
  [[nodiscard]] std::size_t greedy(const la::Vec& s) const;

  /// KL( p_old || p(·|s) ) given the old distribution.
  [[nodiscard]] double kl_from(const la::Vec& probs_old,
                               const la::Vec& s) const;

  /// The PPO loss cotangents w.r.t. the logits, given p = probabilities(s):
  /// each writes num_actions() doubles to `dl_dlogits`; backpropagating
  /// them through the logits net gives the network gradient.
  /// Loss -coef * log π(action|s).
  static void log_prob_cotangent(const la::Vec& p, std::size_t action,
                                 double coef, double* dl_dlogits);
  /// Loss coef * KL(p_old || p) for the current network.
  static void kl_cotangent(const la::Vec& p, const la::Vec& probs_old,
                           double coef, double* dl_dlogits);

  [[nodiscard]] const nn::Mlp& logits_net() const noexcept {
    return logits_net_;
  }
  [[nodiscard]] nn::Mlp& logits_net() noexcept { return logits_net_; }

 private:
  nn::Mlp logits_net_;
};

/// Numerically-stable softmax.  Throws std::invalid_argument for an empty
/// logit row.
[[nodiscard]] la::Vec softmax(const la::Vec& logits);
/// The same softmax over `n` raw logits (a logits row of a tile).
[[nodiscard]] la::Vec softmax(const double* logits, std::size_t n);

}  // namespace cocktail::rl
