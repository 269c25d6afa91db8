// Step 2 of Cocktail: teacher-student robust distillation (paper
// Section III-B, Algorithm 1 lines 11-15).
//
// A student MLP κ*(·; q) is regressed onto the mixed teacher with the
// hybrid probabilistic scheme: per minibatch, draw z ~ U[0,1]; with
// probability p replace the inputs by FGSM adversarial examples
//     δ = Δ · sign(∇_s ℓ(κ*(s; q), u))
// (the inner max of the min-max problem), and always add the L2
// regularizer λ‖q‖², which shrinks the student's Lipschitz constant:
//     min_q  ℓ(κ*(s+δ; q), u) + λ‖q‖².
// Direct distillation (the κD baseline) is the p = 0, λ = 0 special case.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/controller.h"
#include "control/nn_controller.h"
#include "nn/activation.h"
#include "sys/system.h"

namespace cocktail::core {

struct DistillConfig {
  // --- dataset ---
  int teacher_rollouts = 50;       ///< on-policy teacher trajectories from X0.
  int uniform_samples = 4000;      ///< uniform draws over the sampling region.
  // --- student architecture ---
  std::vector<std::size_t> student_hidden = {32, 32};
  nn::Activation hidden_activation = nn::Activation::kTanh;
  // --- optimization ---
  int epochs = 150;                ///< N - NE in Algorithm 1.
  /// Samples per SGD step; must be positive (distill() throws
  /// std::invalid_argument on 0, which would never advance an epoch).
  std::size_t minibatch = 64;
  double learning_rate = 1e-3;
  // --- robustness (Algorithm 1 lines 12-14) ---
  double adversarial_prob = 0.5;   ///< p.
  double lambda_l2 = 3e-4;         ///< λ.
  double delta_fraction = 0.10;    ///< Δ as a fraction of the state bound.
  /// Optional hard Lipschitz control in the style of Pauli et al. [19]
  /// (cited by the paper): after each optimizer step, every layer whose
  /// spectral norm exceeds this cap is rescaled onto it, so the certified
  /// product bound is at most cap^depth.  <= 0 disables the projection
  /// (the paper's Algorithm 1 uses only λ‖q‖²; this is an extension knob
  /// studied by bench_ablation_projection).
  double spectral_norm_cap = 0.0;
  std::uint64_t seed = 3;

  /// The κD baseline: same dataset/architecture, no adversarial training,
  /// no regularization.
  [[nodiscard]] DistillConfig direct() const {
    DistillConfig out = *this;
    out.adversarial_prob = 0.0;
    out.lambda_l2 = 0.0;
    return out;
  }
};

struct DistillResult {
  std::shared_ptr<const ctrl::NnController> student;
  double final_loss = 0.0;      ///< mean MSE on the clean dataset.
  std::size_t dataset_size = 0;
  double lipschitz = 0.0;       ///< certified bound of the student.
};

/// Distillation dataset: pairs (s, u = teacher(s)).
struct DistillDataset {
  std::vector<la::Vec> states;
  std::vector<la::Vec> controls;
  [[nodiscard]] std::size_t size() const { return states.size(); }
};

/// Builds the dataset from teacher rollouts (the states the closed loop
/// actually visits) plus uniform samples of the sampling region (coverage
/// of off-trajectory states, needed for verification over all of X).  The
/// rollouts own per-rollout derived RNG streams, so the dataset is the same
/// for any pool width.
[[nodiscard]] DistillDataset build_distill_dataset(
    const sys::System& system, const ctrl::Controller& teacher,
    const DistillConfig& config);

/// Runs the distillation of Algorithm 1 and returns the student κ* (or κD
/// when config has p = 0, λ = 0).  The minibatch gradients and the final
/// loss follow the fixed chunk tree (util::chunked_reduce) on the shared
/// pool, so the student is bitwise identical for any pool width.  Throws
/// std::invalid_argument on a zero minibatch or an empty dataset.
[[nodiscard]] DistillResult distill(const sys::System& system,
                                    const ctrl::Controller& teacher,
                                    const DistillConfig& config,
                                    const std::string& label = "kstar");

}  // namespace cocktail::core
