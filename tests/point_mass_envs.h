// The tiny 1-D point-mass tasks the RL test suites train on and the
// trainer-update micro-benchmarks measure.  gtest-free so bench_micro can
// share them (its CMake target adds tests/ to its include path); one copy
// so the suites and benchmarks can never silently drift onto different
// dynamics.
#pragma once

#include <cmath>
#include <cstddef>

#include "rl/env.h"
#include "util/rng.h"

namespace cocktail::testutil {

/// 1-D point mass: x' = x + 0.2*a, reward 1 - x²; start x ~ U[-1, 1].
class PointMassEnv final : public rl::Env {
 public:
  [[nodiscard]] std::size_t state_dim() const override { return 1; }
  [[nodiscard]] std::size_t action_dim() const override { return 1; }
  [[nodiscard]] int max_episode_steps() const override { return 30; }

 protected:
  la::Vec do_reset(util::Rng& rng) override {
    x_ = rng.uniform(-1.0, 1.0);
    return {x_};
  }

  rl::StepResult do_step(const la::Vec& action, util::Rng&) override {
    x_ += 0.2 * action[0];
    rl::StepResult result;
    result.next_state = {x_};
    result.reward = 1.0 - x_ * x_;
    result.terminal = std::abs(x_) > 3.0;
    if (result.terminal) result.reward = -10.0;
    return result;
  }

 private:
  double x_ = 0.0;
};

/// Discrete version: actions {left, stay, right} with step 0.15.
class DiscretePointMassEnv final : public rl::Env {
 public:
  [[nodiscard]] std::size_t state_dim() const override { return 1; }
  [[nodiscard]] std::size_t action_dim() const override { return 3; }
  [[nodiscard]] int max_episode_steps() const override { return 30; }

 protected:
  la::Vec do_reset(util::Rng& rng) override {
    x_ = rng.uniform(-1.0, 1.0);
    return {x_};
  }

  rl::StepResult do_step(const la::Vec& action, util::Rng&) override {
    const auto choice = static_cast<int>(action[0]);
    x_ += 0.15 * (choice - 1);
    rl::StepResult result;
    result.next_state = {x_};
    result.reward = 1.0 - x_ * x_;
    return result;
  }

 private:
  double x_ = 0.0;
};

}  // namespace cocktail::testutil
