// MDP environments (paper Section III-A) built on the plant models.
//
//   * ExpertTrainingEnv — the per-expert DDPG task: the action is the raw
//     control input (scaled), the reward a normalized quadratic
//     stabilization cost.  Different cost weights / action scales produce
//     the paper's "experts with different hyper-parameters".
//   * MixingEnv — the adaptive-mixing MDP: the action is the weight vector
//     a ∈ [-AB, AB]^n over the experts, u = clip(Σ aᵢκᵢ(s)); the reward is
//     R_pun on safety violation and the monotonically decreasing energy
//     function h(||u||₁) otherwise.
//   * SwitchingEnv — the restriction of MixingEnv to one-hot weights
//     (the ICCAD'20 [4] baseline AS's action space).
//
// All three optionally corrupt the *observed* state with bounded uniform
// noise so the learned strategies optimize the paper's robustness notion
// (perturbed observations at every sampling period).
#pragma once

#include <memory>
#include <vector>

#include "control/controller.h"
#include "rl/env.h"
#include "sys/system.h"

namespace cocktail::core {

/// Reward parameters shared by MixingEnv / SwitchingEnv / FiniteWeightedEnv.
struct SafetyRewardConfig {
  double unsafe_punishment = -50.0;  ///< R_pun (large negative).
  /// h(||u||₁) = 1 − energy_coef · ||u||₁  (monotonically decreasing).
  /// When <= 0, a sensible default of 1/(2·max||u||₁) is derived so the
  /// reward stays within [~0.5, 1] on feasible controls.
  double energy_coef = 0.0;
  /// Boundary-margin shaping: the paper's reward "steers the system away
  /// from the unsafe region"; a pure in/out punishment only reacts *after*
  /// a violation, so we additionally ramp a penalty over the outer
  /// `boundary_margin` fraction of each (finite) safe-region dimension.
  /// Without it the learned mixing hugs the boundary ("lazy barrier"),
  /// which simulation tolerates but invariant-set certification cannot.
  double boundary_margin = 0.15;   ///< fraction of X near the edge (0 = off).
  double margin_penalty = 3.0;     ///< penalty at the boundary itself.
  /// Half-widths of the observation noise during training (empty = clean
  /// observations).
  la::Vec observation_noise;
};

/// The shaped per-step reward shared by the adaptation envs:
/// R_pun on violation, else h(||u||₁) minus the boundary-margin ramp.
[[nodiscard]] double safety_shaped_reward(const sys::System& system,
                                          const la::Vec& next_state,
                                          const la::Vec& control,
                                          const SafetyRewardConfig& config,
                                          double energy_coef,
                                          bool& violated);

class ExpertTrainingEnv final : public rl::Env {
 public:
  struct Config {
    /// Fraction of the control bound the expert may use (action scaling);
    /// one lever for making experts deliberately different.
    double action_scale = 1.0;
    /// Reward: -Σ_i state_weight_i (s_i/norm_i)² - control_weight·|u/U|².
    la::Vec state_weights;  ///< empty = all ones.
    double control_weight = 0.01;
    double unsafe_punishment = -50.0;
    la::Vec observation_noise;  ///< empty = clean.
  };

  ExpertTrainingEnv(sys::SystemPtr system, Config config);

  [[nodiscard]] std::size_t state_dim() const override;
  [[nodiscard]] std::size_t action_dim() const override;
  [[nodiscard]] int max_episode_steps() const override;

 protected:
  la::Vec do_reset(util::Rng& rng) override;
  [[nodiscard]] rl::StepResult do_step(const la::Vec& action,
                                       util::Rng& rng) override;

 private:
  sys::SystemPtr system_;
  Config config_;
  la::Vec state_norm_;  ///< per-dimension normalizers from sampling_region.
  la::Vec true_state_;
};

class MixingEnv final : public rl::Env {
 public:
  MixingEnv(sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
            double weight_bound, SafetyRewardConfig reward);

  [[nodiscard]] std::size_t state_dim() const override;
  /// One weight per expert.
  [[nodiscard]] std::size_t action_dim() const override;
  [[nodiscard]] int max_episode_steps() const override;

 protected:
  la::Vec do_reset(util::Rng& rng) override;
  /// `action` in [-1,1]^n; the env scales by the weight bound AB.
  [[nodiscard]] rl::StepResult do_step(const la::Vec& action,
                                       util::Rng& rng) override;

 private:
  sys::SystemPtr system_;
  std::vector<ctrl::ControllerPtr> experts_;
  double weight_bound_;
  SafetyRewardConfig reward_;
  double energy_coef_;
  la::Vec true_state_;
};

/// Finite-size weighted adaptation (Ramakrishna et al. [11]): the action
/// picks one entry of a fixed weight table (convex combinations of the
/// experts).  Strictly between SwitchingEnv and MixingEnv in action-space
/// inclusion — the middle rung of Proposition 1's chain.
class FiniteWeightedEnv final : public rl::Env {
 public:
  FiniteWeightedEnv(sys::SystemPtr system,
                    std::vector<ctrl::ControllerPtr> experts,
                    std::vector<la::Vec> weight_table,
                    SafetyRewardConfig reward);

  [[nodiscard]] std::size_t state_dim() const override;
  /// Number of weight-table entries (discrete choices).
  [[nodiscard]] std::size_t action_dim() const override;
  [[nodiscard]] int max_episode_steps() const override;

 protected:
  la::Vec do_reset(util::Rng& rng) override;
  /// `action` holds the table index in action[0].
  [[nodiscard]] rl::StepResult do_step(const la::Vec& action,
                                       util::Rng& rng) override;

 private:
  sys::SystemPtr system_;
  std::vector<ctrl::ControllerPtr> experts_;
  std::vector<la::Vec> weight_table_;
  SafetyRewardConfig reward_;
  double energy_coef_;
  la::Vec true_state_;
};

class SwitchingEnv final : public rl::Env {
 public:
  SwitchingEnv(sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
               SafetyRewardConfig reward);

  [[nodiscard]] std::size_t state_dim() const override;
  /// Number of experts (discrete choices).
  [[nodiscard]] std::size_t action_dim() const override;
  [[nodiscard]] int max_episode_steps() const override;

 protected:
  la::Vec do_reset(util::Rng& rng) override;
  /// `action` holds the selected expert index in action[0].
  [[nodiscard]] rl::StepResult do_step(const la::Vec& action,
                                       util::Rng& rng) override;

 private:
  sys::SystemPtr system_;
  std::vector<ctrl::ControllerPtr> experts_;
  SafetyRewardConfig reward_;
  double energy_coef_;
  la::Vec true_state_;
};

/// Default h-coefficient: 1 / (2 · max attainable ||u||₁).
[[nodiscard]] double default_energy_coef(const sys::System& system);

/// Observed state = true state + uniform noise within `bound` (no-op for an
/// empty bound).
[[nodiscard]] la::Vec observe(const la::Vec& true_state, const la::Vec& bound,
                              util::Rng& rng);

}  // namespace cocktail::core
