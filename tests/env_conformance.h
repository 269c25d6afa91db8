// Universal rl::Env conformance suite.
//
// Every Env implementation in the tree — the adaptive-mixing MDP, the AS
// switching env, the finite-weighted middle rung, the per-expert DDPG task
// env, and the point-mass test envs — is run through the same parameterized
// gtest fixture, pinning the contract documented in rl/env.h:
//   * state/action dimensions and the horizon are positive and consistent
//     with what reset/step actually produce;
//   * reset and whole trajectories are deterministic functions of the
//     caller's RNG stream, and reset leaves no cross-episode state (the
//     collectors run every episode slot on the caller's env);
//   * terminal means terminal: the env never flags (or forbids) stepping at
//     the time limit — truncation belongs to the training loop — and
//     stepping a finished episode throws until the next reset.
//
// Register an env by appending an EnvConformanceCase to the list in
// test_env_conformance.cpp.  New Env implementations MUST be added there.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rl/env.h"
#include "util/rng.h"

namespace cocktail::testutil {

struct EnvConformanceCase {
  /// Suite-instance name ([A-Za-z0-9_] only — gtest parameter naming).
  std::string name;
  /// Fresh, independently-constructed instance of the env under test.
  std::function<std::unique_ptr<rl::Env>()> make;
  /// A valid action for state `s` at episode step `t` that keeps the
  /// episode alive whenever possible (full-horizon episodes exercise the
  /// time-limit path).  Discrete envs return the choice index in [0].
  std::function<la::Vec(const la::Vec& s, int t)> benign_action;
  /// A valid action sequence that eventually drives the env to a terminal
  /// state; null when the env has no terminal states at all.
  std::function<la::Vec(const la::Vec& s, int t)> unsafe_action;
};

inline std::string env_case_name(
    const ::testing::TestParamInfo<EnvConformanceCase>& info) {
  return info.param.name;
}

class EnvConformance : public ::testing::TestWithParam<EnvConformanceCase> {
 protected:
  /// One recorded step of a probe trajectory (bitwise-comparable).
  struct Probe {
    la::Vec state;
    double reward = 0.0;
    bool terminal = false;
  };

  /// Runs up to `episodes` episodes of at most one horizon each with the
  /// case's benign action, all stochasticity from `rng`; returns the flat
  /// step record.  Resets on terminal so the trace always has full length.
  [[nodiscard]] std::vector<Probe> benign_trace(rl::Env& env, util::Rng& rng,
                                                int episodes) const {
    const auto& param = GetParam();
    std::vector<Probe> trace;
    for (int e = 0; e < episodes; ++e) {
      la::Vec s = env.reset(rng);
      for (int t = 0; t < env.max_episode_steps(); ++t) {
        const rl::StepResult result = env.step(param.benign_action(s, t), rng);
        trace.push_back({result.next_state, result.reward, result.terminal});
        if (result.terminal) break;
        s = result.next_state;
      }
    }
    return trace;
  }

  static void expect_same_trace(const std::vector<Probe>& a,
                                const std::vector<Probe>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].state, b[i].state) << "step " << i;       // bitwise.
      EXPECT_EQ(a[i].reward, b[i].reward) << "step " << i;     // bitwise.
      EXPECT_EQ(a[i].terminal, b[i].terminal) << "step " << i;
    }
  }
};

TEST_P(EnvConformance, DimensionsAndHorizonAreConsistent) {
  const auto env = GetParam().make();
  ASSERT_NE(env, nullptr);
  EXPECT_GT(env->state_dim(), 0u);
  EXPECT_GT(env->action_dim(), 0u);
  EXPECT_GT(env->max_episode_steps(), 0);

  util::Rng rng(11);
  const la::Vec s0 = env->reset(rng);
  EXPECT_EQ(s0.size(), env->state_dim());
  const rl::StepResult result =
      env->step(GetParam().benign_action(s0, 0), rng);
  EXPECT_EQ(result.next_state.size(), env->state_dim());
}

TEST_P(EnvConformance, ResetIsDeterministicPerRngStream) {
  const auto a = GetParam().make();
  const auto b = GetParam().make();
  for (const std::uint64_t seed : {1ULL, 77ULL, 424242ULL}) {
    util::Rng rng_a(seed), rng_b(seed);
    EXPECT_EQ(a->reset(rng_a), b->reset(rng_b)) << "seed " << seed;
  }
  // Re-resetting the same instance with a fresh identical stream replays
  // the identical initial state (no hidden cross-episode state).
  util::Rng first(5), second(5);
  EXPECT_EQ(a->reset(first), a->reset(second));
}

TEST_P(EnvConformance, TrajectoriesAreDeterministicPerRngStream) {
  const auto a = GetParam().make();
  const auto b = GetParam().make();
  util::Rng rng_a(97), rng_b(97);
  expect_same_trace(benign_trace(*a, rng_a, 3), benign_trace(*b, rng_b, 3));
}

TEST_P(EnvConformance, EpisodesCarryNoStateAcrossReset) {
  // The collectors run every episode slot on the caller's env, so an
  // instance that already ran episodes — and was left mid-episode — must
  // replay a fresh instance's episodes under the same stream.
  const auto& param = GetParam();
  const auto used = param.make();
  const auto fresh = param.make();
  util::Rng earlier(41);
  (void)benign_trace(*used, earlier, 2);
  la::Vec s = used->reset(earlier);
  (void)used->step(param.benign_action(s, 0), earlier);

  util::Rng rng_used(43), rng_fresh(43);
  expect_same_trace(benign_trace(*used, rng_used, 2),
                    benign_trace(*fresh, rng_fresh, 2));
}

TEST_P(EnvConformance, TimeLimitIsTruncationNotTermination) {
  // The horizon belongs to the training loop: an episode that survives
  // max_episode_steps benign steps must have terminal == false throughout,
  // and the env must still accept a further step (no hidden step counter
  // conflating truncation with termination).
  const auto& param = GetParam();
  const auto env = param.make();
  util::Rng rng(17);
  bool completed_full_episode = false;
  for (int attempt = 0; attempt < 50 && !completed_full_episode; ++attempt) {
    la::Vec s = env->reset(rng);
    bool terminated = false;
    for (int t = 0; t < env->max_episode_steps(); ++t) {
      const rl::StepResult result = env->step(param.benign_action(s, t), rng);
      if (result.terminal) {
        terminated = true;
        break;
      }
      s = result.next_state;
    }
    if (terminated) continue;
    completed_full_episode = true;
    // One step past the horizon is legal and must not be flagged terminal
    // just because the time limit passed.
    EXPECT_NO_THROW({
      const rl::StepResult past = env->step(
          param.benign_action(s, env->max_episode_steps()), rng);
      (void)past;
    });
  }
  EXPECT_TRUE(completed_full_episode)
      << "benign action never survived a full horizon — either the action "
         "is not benign or the env terminates on the time limit";
}

TEST_P(EnvConformance, StepAfterTerminalThrowsUntilReset) {
  const auto& param = GetParam();
  if (!param.unsafe_action)
    GTEST_SKIP() << "env has no terminal states";
  const auto env = param.make();
  util::Rng rng(23);
  bool found_terminal = false;
  for (int episode = 0; episode < 300 && !found_terminal; ++episode) {
    la::Vec s = env->reset(rng);
    for (int t = 0; t < env->max_episode_steps(); ++t) {
      const rl::StepResult result = env->step(param.unsafe_action(s, t), rng);
      if (result.terminal) {
        found_terminal = true;
        break;
      }
      s = result.next_state;
    }
  }
  ASSERT_TRUE(found_terminal)
      << "unsafe action never reached a terminal state";
  // The episode is over: stepping again without reset is a contract
  // violation (previously silently undefined per-env behavior)...
  EXPECT_THROW((void)env->step(param.unsafe_action({0.0}, 0), rng),
               std::logic_error);
  // ...and reset rearms the env.
  la::Vec s = env->reset(rng);
  EXPECT_NO_THROW((void)env->step(param.benign_action(s, 0), rng));
}

}  // namespace cocktail::testutil
