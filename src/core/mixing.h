// Step 1 of Cocktail: RL-based adaptive mixing (paper Section III-A), plus
// the switching baseline AS, the finite-weighted baseline FW and the DDPG
// mixing variant of Remark 1.
//
// The three PPO trainers share one driver, rl::Ppo, and differ only in the
// adaptation env (MixingEnv / SwitchingEnv / FiniteWeightedEnv) and the
// policy head — Proposition 1's chain of action spaces.  All four trainers
// collect serially on the adaptation env and run the minibatch gradient
// work and the checkpoint evaluations on the shared pool; trained
// controllers are bitwise identical for any pool width.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/finite_weighted_controller.h"
#include "control/mixed_controller.h"
#include "control/switched_controller.h"
#include "core/envs.h"
#include "rl/ddpg.h"
#include "rl/ppo.h"

namespace cocktail::core {

/// Checkpoint selection shared by all adaptation trainers: training runs in
/// chunks and the deterministic policy is evaluated between chunks on a
/// fixed set of clean rollouts; the best snapshot (safe rate first, energy
/// as tie-break) becomes the returned controller.  This de-noises the
/// run-to-run variance of on-policy RL without changing what is learned.
struct SnapshotConfig {
  int checkpoints = 6;      ///< evaluation points across training (>= 1).
  int eval_states = 240;    ///< rollouts per evaluation.
  std::uint64_t eval_seed = 99991;
  /// Safe-rate tolerance treated as a tie (then lower energy wins).
  double sr_tie_tolerance = 0.005;
};

struct MixingConfig {
  double weight_bound = 1.5;  ///< AB (the paper requires AB >= 1).
  SafetyRewardConfig reward;
  rl::PpoConfig ppo;
  SnapshotConfig snapshot;
};

struct MixingResult {
  std::shared_ptr<const ctrl::MixedController> controller;  ///< AW.
  rl::PpoStats stats;
};

/// Learns the adaptive mixing strategy with PPO; the returned
/// MixedController uses the deterministic policy mean as its weight net.
[[nodiscard]] MixingResult train_adaptive_mixing(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const MixingConfig& config);

struct SwitchingConfig {
  SafetyRewardConfig reward;
  rl::PpoConfig ppo;
  SnapshotConfig snapshot;
};

struct SwitchingResult {
  std::shared_ptr<const ctrl::SwitchedController> controller;  ///< AS.
  rl::PpoStats stats;
};

/// Learns the switching adaptation baseline (categorical PPO over experts).
[[nodiscard]] SwitchingResult train_switching(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const SwitchingConfig& config);

struct FiniteWeightedConfig {
  /// Simplex grid resolution k: weights from {0, 1/k, ..., 1}, Σ = 1.
  int resolution = 4;
  SafetyRewardConfig reward;
  rl::PpoConfig ppo;
  SnapshotConfig snapshot;
};

struct FiniteWeightedResult {
  std::shared_ptr<const ctrl::FiniteWeightedController> controller;
  rl::PpoStats stats;
};

/// Learns the finite-size weighted adaptation baseline of [11]: categorical
/// PPO over a fixed simplex grid of convex expert combinations.
[[nodiscard]] FiniteWeightedResult train_finite_weighted(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const FiniteWeightedConfig& config);

struct DdpgMixingConfig {
  double weight_bound = 1.5;
  SafetyRewardConfig reward;
  rl::DdpgConfig ddpg;
  SnapshotConfig snapshot;
};

struct DdpgMixingResult {
  std::shared_ptr<const ctrl::MixedController> controller;
  rl::DdpgStats stats;
};

/// Remark 1: the mixing strategy can also be learned with DDPG — the tanh
/// actor plays the role of the weight network directly.
[[nodiscard]] DdpgMixingResult train_adaptive_mixing_ddpg(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const DdpgMixingConfig& config);

}  // namespace cocktail::core
