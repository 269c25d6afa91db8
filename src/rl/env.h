// Episodic environment interface for the RL algorithms.
//
// The MDP of Section III-A (adaptive mixing), its switching restriction
// (the AS baseline), and the per-expert DDPG training tasks are all
// implemented as Envs in src/core; the algorithms here are generic.
//
// The interface is non-virtual (NVI): `reset`/`step` are the public entry
// points and enforce the episode contract below; implementations override
// the protected `do_*` hooks.  The contract — pinned for every
// implementation by the conformance suite in tests/env_conformance.h — is:
//   * `reset`/`step` are deterministic functions of the env state and the
//     caller-supplied RNG stream (all stochasticity flows through `rng`);
//   * `reset` leaves no cross-episode state: an episode is a function of its
//     RNG stream and actions alone, which is what lets the collectors
//     (rl::Ppo::collect, DDPG's warmup) run every episode slot on the
//     caller's env;
//   * `StepResult::terminal` marks genuine terminal states only; hitting
//     `max_episode_steps` is time-limit truncation, which the training loop
//     owns — an env never flags (and never forbids) stepping at the limit;
//   * once a step returned `terminal`, the episode is over: stepping again
//     without an intervening `reset` throws std::logic_error (this used to
//     be silently undefined per-env behavior).
#pragma once

#include <cstddef>
#include <stdexcept>

#include "la/vec.h"
#include "util/rng.h"

namespace cocktail::rl {

struct StepResult {
  la::Vec next_state;
  double reward = 0.0;
  /// True when the episode reached a genuine terminal state (e.g. a safety
  /// violation).  Time-limit truncation is handled by the training loop and
  /// must NOT set this flag, so bootstrapping stays correct.
  bool terminal = false;
};

class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  /// Continuous action dimension (or number of discrete choices for
  /// categorical policies).
  [[nodiscard]] virtual std::size_t action_dim() const = 0;
  /// Episode length T.
  [[nodiscard]] virtual int max_episode_steps() const = 0;

  /// Starts a new episode; returns the initial state.
  la::Vec reset(util::Rng& rng) {
    terminal_pending_ = false;
    return do_reset(rng);
  }

  /// Applies an action.  Continuous actions arrive in [-1, 1]^dim (the env
  /// owns any scaling); discrete actions arrive as a one-element vector
  /// holding the choice index.  Throws std::logic_error when the previous
  /// step already ended the episode (`terminal` was set and no reset
  /// followed) — stepping a finished episode has no defined semantics.
  [[nodiscard]] StepResult step(const la::Vec& action, util::Rng& rng) {
    if (terminal_pending_)
      throw std::logic_error(
          "rl::Env::step: episode already reached a terminal state; "
          "call reset() before stepping again");
    StepResult result = do_step(action, rng);
    terminal_pending_ = result.terminal;
    return result;
  }

 protected:
  Env() = default;
  // Copyable only through the concrete type (no slicing through an Env&).
  Env(const Env&) = default;
  Env& operator=(const Env&) = default;

  virtual la::Vec do_reset(util::Rng& rng) = 0;
  [[nodiscard]] virtual StepResult do_step(const la::Vec& action,
                                           util::Rng& rng) = 0;

 private:
  bool terminal_pending_ = false;
};

}  // namespace cocktail::rl
