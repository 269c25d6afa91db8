#include "nn/loss.h"

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

}  // namespace cocktail::nn
