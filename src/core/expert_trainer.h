// Expert construction (paper Section IV, "Test Systems"):
//
//   "Each system has two available control experts κ1 and κ2, obtained by
//    DDPG with different hyper-parameters, or in the case of the 3D system,
//    DDPG and a model-based controller from [25]."
//
// κ1/κ2 are DDPG actors trained with deliberately different network sizes,
// exploration schedules, cost weights, and action scales; the 3D system's
// κ2 is a degree-1 polynomial controller synthesized by LQR (the published
// coefficients are unavailable — DESIGN.md §2).  Experts are cached on disk
// so benches sharing a system never retrain them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.h"
#include "core/envs.h"
#include "rl/ddpg.h"
#include "sys/system.h"

namespace cocktail::core {

struct ExpertSpec {
  std::string label = "k1";
  rl::DdpgConfig ddpg;
  ExpertTrainingEnv::Config env;
  /// Training stops once the evaluated safe control rate reaches this
  /// target (the paper's experts are *imperfect*: 79%-91% depending on the
  /// system — an expert trained to saturation would leave the adaptive
  /// mixing nothing to improve).  The best snapshot seen is returned even
  /// if the target is never reached within ddpg.episodes.
  double target_safe_rate = 0.85;
  /// Snapshot/evaluation cadence.  Kept short: DDPG can jump from poor to
  /// near-perfect within a few tens of episodes, and a coarse cadence
  /// overshoots the band.  Must be positive: train_ddpg_expert() throws
  /// std::invalid_argument otherwise (a 0-episode chunk never advances).
  int eval_every_episodes = 10;
  int eval_states = 200;  ///< rollouts per evaluation.
  std::uint64_t eval_seed = 77177;
};

/// Trains one DDPG expert from scratch (no cache).
[[nodiscard]] ctrl::ControllerPtr train_ddpg_expert(sys::SystemPtr system,
                                                    const ExpertSpec& spec);

/// The paper's model-based expert for the 3D system: linear (degree-1
/// polynomial) state feedback from LQR on the triple-integrator
/// linearization, mildly weighted so its Lipschitz constant stays small.
[[nodiscard]] ctrl::ControllerPtr make_threed_polynomial_expert(
    const sys::System& system);

/// Per-system default specs for κ1 and κ2 (κ2 of the 3D system is the
/// polynomial controller and carries no DDPG spec).
[[nodiscard]] std::vector<ExpertSpec> default_expert_specs(
    const std::string& system_name, std::uint64_t seed);

/// Returns the system's two experts, loading from the model cache when
/// possible and training + saving otherwise; the files are keyed by system,
/// expert label and seed.  DDPG runs its minibatch updates on the shared
/// pool; experts are bitwise identical for any pool width.
[[nodiscard]] std::vector<ctrl::ControllerPtr> load_or_train_experts(
    sys::SystemPtr system, std::uint64_t seed, bool use_cache = true);

}  // namespace cocktail::core
