#include "verify/bernstein.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace cocktail::verify {

void BernsteinPoly::grid(const IBox& box, const std::vector<int>& degrees,
                         std::vector<double>& points) {
  if (degrees.size() != box.size())
    throw std::invalid_argument("BernsteinPoly: degree arity mismatch");
  std::size_t total = 1;
  for (int d : degrees) {
    if (d < 1) throw std::invalid_argument("BernsteinPoly: degree < 1");
    total *= static_cast<std::size_t>(d + 1);
  }
  const std::size_t n = box.size();
  points.resize(total * n);
  // Coordinate k of axis `dim` repeats in runs of `stride` points (the
  // grid points of the faster axes), one run every (d + 1)·stride points.
  std::size_t stride = 1;
  for (std::size_t dim = 0; dim < n; ++dim) {
    const auto d = static_cast<std::size_t>(degrees[dim]);
    const std::size_t period = stride * (d + 1);
    for (std::size_t k = 0; k <= d; ++k) {
      const double x = box[dim].lo() + box[dim].width() *
                                           static_cast<double>(k) /
                                           static_cast<double>(d);
      for (std::size_t run = k * stride; run < total; run += period)
        for (std::size_t j = run; j < run + stride; ++j)
          points[j * n + dim] = x;
    }
    stride = period;
  }
}

double BernsteinPoly::error_bound(double lipschitz, const IBox& box,
                                  const std::vector<int>& degrees) {
  double squares = 0.0;
  for (std::size_t i = 0; i < box.size(); ++i) {
    const double half_spacing =
        box[i].width() / (2.0 * static_cast<double>(degrees[i]));
    squares += half_spacing * half_spacing;
  }
  return lipschitz * std::sqrt(squares);
}

double BernsteinPoly::degrees_for(double lipschitz, const IBox& box,
                                  double epsilon, int max_degree,
                                  std::vector<int>& degrees) {
  if (max_degree < 1)
    throw std::invalid_argument("BernsteinPoly::degrees_for: max_degree < 1");
  const double root_n = std::sqrt(static_cast<double>(box.size()));
  degrees.resize(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) {
    // Equal split: L·w_i/(2·d_i) = ε/√n  =>  d_i = √n·L·w_i/(2ε).  Clamp in
    // double before the cast: a large L/ε ratio puts d far past INT_MAX
    // (the cast would be UB), and NaN maps to the cap.
    const double d =
        std::ceil(root_n * lipschitz * box[i].width() / (2.0 * epsilon));
    degrees[i] = std::isnan(d) ? max_degree
                               : static_cast<int>(std::clamp(
                                     d, 1.0, static_cast<double>(max_degree)));
  }
  return error_bound(lipschitz, box, degrees);
}

}  // namespace cocktail::verify
