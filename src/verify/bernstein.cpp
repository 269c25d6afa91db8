#include "verify/bernstein.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace cocktail::verify {

double binomial(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  k = std::min(k, n - k);
  double out = 1.0;
  for (int i = 1; i <= k; ++i)
    out = out * static_cast<double>(n - k + i) / static_cast<double>(i);
  return out;
}

namespace {

/// Π(d_i + 1): the number of grid points, after validating the degrees.
std::size_t grid_points(const IBox& box, const std::vector<int>& degrees) {
  if (degrees.size() != box.size())
    throw std::invalid_argument("BernsteinPoly: degree arity mismatch");
  std::size_t total = 1;
  for (int d : degrees) {
    if (d < 1) throw std::invalid_argument("BernsteinPoly: degree < 1");
    total *= static_cast<std::size_t>(d + 1);
  }
  return total;
}

}  // namespace

std::vector<double> BernsteinPoly::grid(const IBox& box,
                                        const std::vector<int>& degrees) {
  const std::size_t total = grid_points(box, degrees);
  const std::size_t n = box.size();
  std::vector<double> points(total * n);
  for (std::size_t index = 0; index < total; ++index) {
    std::size_t rem = index;
    for (std::size_t dim = 0; dim < n; ++dim) {
      const auto d = static_cast<std::size_t>(degrees[dim]);
      const std::size_t k = rem % (d + 1);
      rem /= (d + 1);
      points[index * n + dim] =
          box[dim].lo() + box[dim].width() * static_cast<double>(k) /
                              static_cast<double>(d);
    }
  }
  return points;
}

BernsteinPoly BernsteinPoly::from_samples(const IBox& box,
                                          const std::vector<int>& degrees,
                                          std::vector<double> samples) {
  if (samples.size() != grid_points(box, degrees))
    throw std::invalid_argument(
        "BernsteinPoly::from_samples: sample count does not match the grid");
  BernsteinPoly poly;
  poly.box_ = box;
  poly.degrees_ = degrees;
  poly.coeffs_ = std::move(samples);
  return poly;
}

BernsteinPoly BernsteinPoly::fit(
    const std::function<double(const la::Vec&)>& f, const IBox& box,
    const std::vector<int>& degrees) {
  const std::vector<double> points = grid(box, degrees);
  const std::size_t n = box.size();
  std::vector<double> samples(grid_points(box, degrees));
  la::Vec x(n);
  for (std::size_t j = 0; j < samples.size(); ++j) {
    std::copy_n(points.begin() + static_cast<std::ptrdiff_t>(j * n), n,
                x.begin());
    samples[j] = f(x);
  }
  return from_samples(box, degrees, std::move(samples));
}

double BernsteinPoly::eval(const la::Vec& x) const {
  if (x.size() != box_.size())
    throw std::invalid_argument("BernsteinPoly::eval: dimension mismatch");
  // Per-dimension Bernstein basis values at the normalized coordinate.
  std::vector<std::vector<double>> basis(box_.size());
  for (std::size_t dim = 0; dim < box_.size(); ++dim) {
    const int d = degrees_[dim];
    const double w = box_[dim].width();
    const double t =
        w > 0.0 ? std::clamp((x[dim] - box_[dim].lo()) / w, 0.0, 1.0) : 0.0;
    basis[dim].resize(static_cast<std::size_t>(d) + 1);
    for (int k = 0; k <= d; ++k)
      basis[dim][k] = binomial(d, k) * std::pow(t, k) *
                      std::pow(1.0 - t, d - k);
  }
  double acc = 0.0;
  for (std::size_t index = 0; index < coeffs_.size(); ++index) {
    std::size_t rem = index;
    double b = 1.0;
    for (std::size_t dim = 0; dim < box_.size(); ++dim) {
      const auto d = static_cast<std::size_t>(degrees_[dim]);
      b *= basis[dim][rem % (d + 1)];
      rem /= (d + 1);
    }
    acc += coeffs_[index] * b;
  }
  return acc;
}

Interval BernsteinPoly::range() const {
  const auto [lo_it, hi_it] =
      std::minmax_element(coeffs_.begin(), coeffs_.end());
  return {*lo_it, *hi_it};
}

double BernsteinPoly::error_bound(double lipschitz, const IBox& box,
                                  const std::vector<int>& degrees) {
  double bound = 0.0;
  for (std::size_t i = 0; i < box.size(); ++i)
    bound += box[i].width() / std::sqrt(static_cast<double>(degrees[i]));
  return 0.5 * lipschitz * bound;
}

std::vector<int> BernsteinPoly::degrees_for(double lipschitz, const IBox& box,
                                            double epsilon, int max_degree,
                                            double& achieved) {
  const auto n = static_cast<double>(box.size());
  std::vector<int> degrees(box.size(), 1);
  for (std::size_t i = 0; i < box.size(); ++i) {
    // Equal error split: (L/2)·w_i/√d_i = ε/n  =>  d_i = (n·L·w_i/(2ε))².
    const double needed =
        n * lipschitz * box[i].width() / (2.0 * epsilon);
    // Clamp in double before the cast: a large L/ε ratio puts d far past
    // INT_MAX (the cast would be UB), and NaN maps to the cap.
    const double d = std::ceil(needed * needed);
    degrees[i] = std::isnan(d) ? max_degree
                               : static_cast<int>(std::clamp(
                                     d, 1.0, static_cast<double>(max_degree)));
  }
  achieved = error_bound(lipschitz, box, degrees);
  return degrees;
}

}  // namespace cocktail::verify
