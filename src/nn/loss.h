// Regression losses used by distillation and the RL critics.
#pragma once

#include "la/vec.h"

namespace cocktail::nn {

/// Mean squared error over vector outputs: (1/n) * sum_i (y_i - t_i)^2.
[[nodiscard]] double mse(const la::Vec& prediction, const la::Vec& target);

/// Gradient of mse() with respect to the prediction: (2/n) * (y - t).
[[nodiscard]] la::Vec mse_gradient(const la::Vec& prediction,
                                   const la::Vec& target);
/// The same gradient on raw rows of n doubles (a row of a tile), written
/// to `out`; mse_gradient() wraps it.
void mse_gradient(const double* prediction, const double* target,
                  std::size_t n, double* out);

}  // namespace cocktail::nn
