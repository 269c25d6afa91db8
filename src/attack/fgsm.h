// Fast Gradient Sign Method attacks (Goodfellow et al. [20]).
//
// Two uses in the paper:
//  * training-time: Algorithm 1 line 13 generates adversarial inputs for
//    robust distillation — that path lives in core/distiller and calls the
//    raw `fgsm_delta` helper below with the distillation loss gradient;
//  * evaluation-time: the closed-loop attack of Table II / Fig 2, modeled
//    here as FgsmAttack.  At each step the attacker picks
//        δ = Δ ∘ sign(∇_δ ‖κ(s+δ) − κ(s)‖²)|_{δ=δ0}
//    from a small random start δ0 (the gradient at δ=0 is exactly zero, so
//    R-FGSM-style random initialization is required), maximizing the
//    first-order deviation of the control signal.  For non-differentiable
//    controllers the gradient sign is estimated by central finite
//    differences, so the same attack applies to every baseline.
#pragma once

#include "attack/perturbation.h"

namespace cocktail::attack {

/// Raw FGSM step: Δ ∘ sign(g) where g is a loss gradient w.r.t. the input.
[[nodiscard]] la::Vec fgsm_delta(const la::Vec& gradient,
                                 const la::Vec& bound);
/// The same step on a raw gradient row of bound.size() doubles, written to
/// `delta` (which may alias `gradient`); fgsm_delta() wraps it.
void fgsm_delta(const double* gradient, const la::Vec& bound, double* delta);

struct FgsmConfig {
  /// Relative magnitude of the random linearization point δ0 (fraction of
  /// the attack bound).
  double random_start_fraction = 0.1;
  /// Finite-difference step (fraction of the bound) for controllers with
  /// no Jacobian.
  double fd_step_fraction = 0.05;
};

class FgsmAttack final : public PerturbationModel {
 public:
  explicit FgsmAttack(la::Vec bound, FgsmConfig config = {});

  [[nodiscard]] la::Vec perturb(const la::Vec& state,
                                const ctrl::Controller& controller,
                                util::Rng& rng) const override;
  [[nodiscard]] std::string describe() const override { return "fgsm"; }

  [[nodiscard]] const la::Vec& bound() const noexcept { return bound_; }

 private:
  [[nodiscard]] la::Vec gradient_sign(const la::Vec& state,
                                      const la::Vec& reference_u,
                                      const la::Vec& start,
                                      const ctrl::Controller& controller,
                                      util::Rng& rng) const;

  la::Vec bound_;
  FgsmConfig config_;
};

}  // namespace cocktail::attack
