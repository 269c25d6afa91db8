// Sparse multivariate polynomial controller.
//
// Models the paper's model-based experts: κ2 of the 3D system is a
// polynomial controller from Sassi et al. [25] (its coefficients are
// unpublished; we synthesize a degree-1 instance via LQR — see DESIGN.md §2,
// consistent with the very small Lipschitz constant the paper reports).
// The class supports arbitrary degree so higher-order certificates can be
// plugged in as experts too.
#pragma once

#include <string>
#include <vector>

#include "control/controller.h"

namespace cocktail::ctrl {

/// One monomial: coefficient * prod_i s_i^powers[i].
struct Monomial {
  double coefficient = 0.0;
  std::vector<unsigned> powers;  ///< one entry per state dimension.
};

class PolynomialController final : public Controller {
 public:
  /// `terms[k]` is the monomial list of output dimension k.  Every monomial
  /// must carry `state_dim` powers.
  PolynomialController(std::size_t state_dim,
                       std::vector<std::vector<Monomial>> terms,
                       std::string label = "poly");

  /// Linear state feedback u = -K s as a degree-1 polynomial controller.
  static PolynomialController linear_feedback(const la::Matrix& k,
                                              std::string label = "poly-lin");

  [[nodiscard]] la::Vec act(const la::Vec& s) const override;
  [[nodiscard]] std::size_t state_dim() const override { return state_dim_; }
  [[nodiscard]] std::size_t control_dim() const override {
    return terms_.size();
  }
  [[nodiscard]] std::string describe() const override { return label_; }
  [[nodiscard]] bool differentiable() const override { return true; }
  [[nodiscard]] la::Matrix input_jacobian(const la::Vec& s) const override;

  /// For degree ≤ 1 this is exact (spectral norm of the linear part);
  /// higher degrees have no global bound and return a negative value
  /// (uncertified).
  [[nodiscard]] double lipschitz_bound() const override;

  [[nodiscard]] unsigned degree() const;
  [[nodiscard]] const std::vector<std::vector<Monomial>>& terms() const {
    return terms_;
  }

 private:
  std::size_t state_dim_;
  std::vector<std::vector<Monomial>> terms_;
  std::string label_;
};

}  // namespace cocktail::ctrl
