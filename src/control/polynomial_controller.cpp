#include "control/polynomial_controller.h"

#include <algorithm>
#include <stdexcept>

namespace cocktail::ctrl {
namespace {

double pow_unsigned(double base, unsigned exp) {
  double out = 1.0;
  while (exp-- > 0) out *= base;
  return out;
}

}  // namespace

PolynomialController::PolynomialController(
    std::size_t state_dim, std::vector<std::vector<Monomial>> terms,
    std::string label)
    : state_dim_(state_dim), terms_(std::move(terms)),
      label_(std::move(label)) {
  if (terms_.empty())
    throw std::invalid_argument("PolynomialController: no output dimensions");
  for (const auto& output : terms_)
    for (const auto& mono : output)
      if (mono.powers.size() != state_dim_)
        throw std::invalid_argument(
            "PolynomialController: monomial arity != state_dim");
}

PolynomialController PolynomialController::linear_feedback(const la::Matrix& k,
                                                           std::string label) {
  std::vector<std::vector<Monomial>> terms(k.rows());
  for (std::size_t r = 0; r < k.rows(); ++r) {
    for (std::size_t c = 0; c < k.cols(); ++c) {
      if (k(r, c) == 0.0) continue;
      Monomial mono;
      mono.coefficient = -k(r, c);  // u = -K s.
      mono.powers.assign(k.cols(), 0);
      mono.powers[c] = 1;
      terms[r].push_back(std::move(mono));
    }
  }
  return PolynomialController(k.cols(), std::move(terms), std::move(label));
}

la::Vec PolynomialController::act(const la::Vec& s) const {
  if (s.size() != state_dim_)
    throw std::invalid_argument("PolynomialController::act: bad state dim");
  la::Vec u(terms_.size(), 0.0);
  for (std::size_t k = 0; k < terms_.size(); ++k) {
    double acc = 0.0;
    for (const auto& mono : terms_[k]) {
      double value = mono.coefficient;
      for (std::size_t i = 0; i < state_dim_; ++i)
        if (mono.powers[i] > 0) value *= pow_unsigned(s[i], mono.powers[i]);
      acc += value;
    }
    u[k] = acc;
  }
  return u;
}

la::Matrix PolynomialController::input_jacobian(const la::Vec& s) const {
  la::Matrix jac(terms_.size(), state_dim_);
  for (std::size_t k = 0; k < terms_.size(); ++k) {
    for (const auto& mono : terms_[k]) {
      for (std::size_t d = 0; d < state_dim_; ++d) {
        if (mono.powers[d] == 0) continue;
        double value = mono.coefficient * mono.powers[d];
        for (std::size_t i = 0; i < state_dim_; ++i) {
          const unsigned p = i == d ? mono.powers[i] - 1 : mono.powers[i];
          if (p > 0) value *= pow_unsigned(s[i], p);
        }
        jac(k, d) += value;
      }
    }
  }
  return jac;
}

double PolynomialController::lipschitz_bound() const {
  if (degree() > 1) return -1.0;
  // Degree <= 1: the Jacobian is constant; evaluate it anywhere.
  return input_jacobian(la::zeros(state_dim_)).spectral_norm();
}

unsigned PolynomialController::degree() const {
  unsigned best = 0;
  for (const auto& output : terms_)
    for (const auto& mono : output) {
      unsigned total = 0;
      for (unsigned p : mono.powers) total += p;
      best = std::max(best, total);
    }
  return best;
}

}  // namespace cocktail::ctrl
