// Multivariate Bernstein polynomial approximation (Section III-C):
//
//   κ*(x) ∈ B_d(x) + [-ε, ε]  for all x in a box.
//
// The tensor-product Bernstein operator samples the function on the
// (d_1+1)x...x(d_n+1) grid  x_k = lo + (k/d)·(hi-lo); its coefficients are
// exactly those samples, which yields two classic properties we exploit:
//   * range enclosure: min_k c_k ≤ B_d(x) ≤ max_k c_k on the box;
//   * Lipschitz error bound: |f - B_d(f)| ≤ (L/2)·Σ_i w_i/√d_i,
//     so the degree needed for a target ε grows *quadratically* with the
//     function's Lipschitz constant — the mechanism behind the paper's
//     verifiability metric (Remark 2).
#pragma once

#include <functional>
#include <vector>

#include "la/vec.h"
#include "verify/interval.h"

namespace cocktail::verify {

class BernsteinPoly {
 public:
  /// Fits B_d(f) on `box` by sampling `f` point by point on grid(box,
  /// degrees).  `degrees[i] >= 1` is the polynomial degree along dimension
  /// i.  The scalar reference for from_samples().
  static BernsteinPoly fit(const std::function<double(const la::Vec&)>& f,
                           const IBox& box, const std::vector<int>& degrees);

  /// The Bernstein grid x_k = lo + (k/d)·(hi-lo) of `box` at `degrees`,
  /// row-major in coefficient order (dimension 0 fastest): point j occupies
  /// entries [j·n, (j+1)·n) for n = box.size().  Throws
  /// std::invalid_argument on a degree arity mismatch or a degree < 1.
  [[nodiscard]] static std::vector<double> grid(
      const IBox& box, const std::vector<int>& degrees);

  /// B_d from `samples[j]` = f(point j of grid(box, degrees)) — the same
  /// polynomial fit() builds, for callers that evaluate the whole grid in
  /// one batch.  Throws std::invalid_argument when the sample count does
  /// not match the grid.
  [[nodiscard]] static BernsteinPoly from_samples(
      const IBox& box, const std::vector<int>& degrees,
      std::vector<double> samples);

  /// Evaluates the polynomial at `x` (inside the box; de-normalization is
  /// handled internally).
  [[nodiscard]] double eval(const la::Vec& x) const;

  /// Coefficient-hull range enclosure over the fit box.
  [[nodiscard]] Interval range() const;

  /// Classic Lipschitz error bound ε = (L/2)·Σ_i width_i/√degree_i for any
  /// L-Lipschitz (in l2) function on the fit box.
  [[nodiscard]] static double error_bound(double lipschitz, const IBox& box,
                                          const std::vector<int>& degrees);

  /// Degrees needed so error_bound(...) <= epsilon with equal per-dimension
  /// contributions, each capped at `max_degree`.  Returns the achieved
  /// bound through `achieved` (> epsilon when the cap binds — the caller
  /// should then partition the box).
  [[nodiscard]] static std::vector<int> degrees_for(double lipschitz,
                                                    const IBox& box,
                                                    double epsilon,
                                                    int max_degree,
                                                    double& achieved);

  [[nodiscard]] const std::vector<int>& degrees() const { return degrees_; }
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeffs_;
  }
  [[nodiscard]] std::size_t sample_count() const { return coeffs_.size(); }

 private:
  IBox box_;
  std::vector<int> degrees_;
  std::vector<double> coeffs_;  ///< flattened tensor grid, dim 0 fastest.
};

/// Binomial coefficient C(n, k) as double (n small here).
[[nodiscard]] double binomial(int n, int k);

}  // namespace cocktail::verify
