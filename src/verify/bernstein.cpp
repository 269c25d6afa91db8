#include "verify/bernstein.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace cocktail::verify {

std::vector<double> BernsteinPoly::grid(const IBox& box,
                                        const std::vector<int>& degrees) {
  if (degrees.size() != box.size())
    throw std::invalid_argument("BernsteinPoly: degree arity mismatch");
  std::size_t total = 1;
  for (int d : degrees) {
    if (d < 1) throw std::invalid_argument("BernsteinPoly: degree < 1");
    total *= static_cast<std::size_t>(d + 1);
  }
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

std::vector<int> BernsteinPoly::degrees_for(double lipschitz, const IBox& box,
                                            double epsilon, int max_degree,
                                            double& achieved) {
  if (max_degree < 1)
    throw std::invalid_argument("BernsteinPoly::degrees_for: max_degree < 1");
  const double root_n = std::sqrt(static_cast<double>(box.size()));
  std::vector<int> degrees(box.size(), 1);
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
  achieved = error_bound(lipschitz, box, degrees);
  return degrees;
}

}  // namespace cocktail::verify
