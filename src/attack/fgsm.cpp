#include "attack/fgsm.h"

#include <cmath>
#include <stdexcept>

namespace cocktail::attack {

la::Vec fgsm_delta(const la::Vec& gradient, const la::Vec& bound) {
  if (gradient.size() != bound.size())
    throw std::invalid_argument("fgsm_delta: dimension mismatch");
  la::Vec delta(gradient.size());
  fgsm_delta(gradient.data(), bound, delta.data());
  return delta;
}

void fgsm_delta(const double* gradient, const la::Vec& bound, double* delta) {
  for (std::size_t i = 0; i < bound.size(); ++i) {
    const double s = gradient[i] > 0.0 ? 1.0 : (gradient[i] < 0.0 ? -1.0 : 0.0);
    delta[i] = bound[i] * s;
  }
}

FgsmAttack::FgsmAttack(la::Vec bound, FgsmConfig config)
    : bound_(std::move(bound)), config_(config) {
  for (double b : bound_)
    if (b < 0.0) throw std::invalid_argument("FgsmAttack: negative bound");
}

la::Vec FgsmAttack::gradient_sign(const la::Vec& state,
                                  const la::Vec& reference_u,
                                  const la::Vec& start,
                                  const ctrl::Controller& controller,
                                  util::Rng& rng) const {
  const la::Vec probe = la::add(state, start);
  if (controller.differentiable()) {
    // ∇_δ ||κ(s+δ) − u_ref||² = 2 J(s+δ)^T (κ(s+δ) − u_ref).
    const la::Vec diff = la::sub(controller.act(probe), reference_u);
    const la::Matrix jac = controller.input_jacobian(probe);
    la::Vec grad = jac.matvec_transpose(la::scale(diff, 2.0));
    if (la::norm_linf(grad) > 1e-12) return la::sign(grad);
    // Degenerate gradient (e.g. dead ReLU region): fall back to random.
    la::Vec random(grad.size());
    for (auto& v : random) v = rng.bernoulli(0.5) ? 1.0 : -1.0;
    return random;
  }
  // Finite-difference sign per dimension for black-box controllers.
  la::Vec sign(state.size(), 0.0);
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double h = std::max(config_.fd_step_fraction * bound_[i], 1e-8);
    la::Vec plus = probe, minus = probe;
    plus[i] += h;
    minus[i] -= h;
    const la::Vec du_plus = la::sub(controller.act(plus), reference_u);
    const la::Vec du_minus = la::sub(controller.act(minus), reference_u);
    const double g = la::dot(du_plus, du_plus) - la::dot(du_minus, du_minus);
    sign[i] = g > 0.0 ? 1.0 : (g < 0.0 ? -1.0 : (rng.bernoulli(0.5) ? 1. : -1.));
  }
  return sign;
}

la::Vec FgsmAttack::perturb(const la::Vec& state,
                            const ctrl::Controller& controller,
                            util::Rng& rng) const {
  if (state.size() != bound_.size())
    throw std::invalid_argument("FgsmAttack: state dimension mismatch");
  const la::Vec u_ref = controller.act(state);
  // Random linearization point δ0 (the gradient vanishes exactly at δ=0).
  la::Vec start(state.size());
  for (std::size_t i = 0; i < start.size(); ++i)
    start[i] = rng.uniform(-1.0, 1.0) * config_.random_start_fraction *
               bound_[i];
  const la::Vec sign = gradient_sign(state, u_ref, start, controller, rng);
  la::Vec delta(state.size());
  for (std::size_t i = 0; i < delta.size(); ++i)
    delta[i] = bound_[i] * sign[i];
  return delta;
}

}  // namespace cocktail::attack
