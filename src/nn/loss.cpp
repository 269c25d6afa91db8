#include "nn/loss.h"

#include <cmath>
#include <stdexcept>

namespace cocktail::nn {
namespace {

void require_same(const la::Vec& a, const la::Vec& b, const char* op) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string("nn::") + op +
                                ": dimension mismatch");
}

}  // namespace

double mse(const la::Vec& prediction, const la::Vec& target) {
  require_same(prediction, target, "mse");
  double s = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = prediction[i] - target[i];
    s += d * d;
  }
  return s / static_cast<double>(prediction.size());
}

la::Vec mse_gradient(const la::Vec& prediction, const la::Vec& target) {
  require_same(prediction, target, "mse_gradient");
  la::Vec g(prediction.size());
  mse_gradient(prediction.data(), target.data(), prediction.size(), g.data());
  return g;
}

void mse_gradient(const double* prediction, const double* target,
                  std::size_t n, double* out) {
  const double scale = 2.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = scale * (prediction[i] - target[i]);
}

double huber(const la::Vec& prediction, const la::Vec& target, double delta) {
  require_same(prediction, target, "huber");
  double s = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = std::abs(prediction[i] - target[i]);
    s += d <= delta ? 0.5 * d * d : delta * (d - 0.5 * delta);
  }
  return s / static_cast<double>(prediction.size());
}

la::Vec huber_gradient(const la::Vec& prediction, const la::Vec& target,
                       double delta) {
  require_same(prediction, target, "huber_gradient");
  la::Vec g(prediction.size());
  const double scale = 1.0 / static_cast<double>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = prediction[i] - target[i];
    if (std::abs(d) <= delta) g[i] = scale * d;
    else g[i] = scale * delta * (d > 0 ? 1.0 : -1.0);
  }
  return g;
}

}  // namespace cocktail::nn
