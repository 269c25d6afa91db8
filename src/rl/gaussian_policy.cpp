#include "rl/gaussian_policy.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cocktail::rl {

GaussianPolicy::GaussianPolicy(std::size_t state_dim,
                               const std::vector<std::size_t>& hidden,
                               std::size_t action_dim, double initial_std,
                               std::uint64_t seed)
    : mean_net_(nn::Mlp::make(state_dim, hidden, action_dim,
                              nn::Activation::kTanh, nn::Activation::kTanh,
                              seed)),
      log_std_(action_dim, std::log(initial_std)) {
  // NaN fails the comparison; +Inf would make every sample NaN.
  if (!(initial_std > 0.0) || !std::isfinite(initial_std))
    throw std::invalid_argument(
        "GaussianPolicy: initial_std must be finite and > 0");
}

la::Vec GaussianPolicy::mean(const la::Vec& s) const {
  return mean_net_.forward(s);
}

la::Vec GaussianPolicy::stddev() const {
  la::Vec std(log_std_.size());
  for (std::size_t i = 0; i < std.size(); ++i) std[i] = std::exp(log_std_[i]);
  return std;
}

GaussianPolicy::Sample GaussianPolicy::sample(const la::Vec& s,
                                              util::Rng& rng) const {
  const la::Vec mu = mean(s);
  const la::Vec std = stddev();
  Sample out;
  out.action.resize(mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i)
    out.action[i] = mu[i] + std[i] * rng.normal();
  out.log_prob = log_prob_of_mean(mu.data(), out.action);
  return out;
}

double GaussianPolicy::log_prob(const la::Vec& s, const la::Vec& a) const {
  return log_prob_of_mean(mean(s).data(), a);
}

double GaussianPolicy::log_prob_of_mean(const double* mu,
                                        const la::Vec& a) const {
  if (a.size() != log_std_.size())
    throw std::invalid_argument("GaussianPolicy::log_prob: bad action dim");
  double lp = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double std = std::exp(log_std_[i]);
    const double z = (a[i] - mu[i]) / std;
    lp += -0.5 * z * z - log_std_[i] -
          0.5 * std::log(2.0 * std::numbers::pi);
  }
  return lp;
}

double GaussianPolicy::kl_from(const la::Vec& mu_old, const la::Vec& std_old,
                               const la::Vec& s) const {
  const la::Vec mu = mean(s);
  double kl = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const double std_new = std::exp(log_std_[i]);
    const double var_new = std_new * std_new;
    const double diff = mu_old[i] - mu[i];
    kl += std::log(std_new / std_old[i]) +
          (std_old[i] * std_old[i] + diff * diff) / (2.0 * var_new) - 0.5;
  }
  return kl;
}

void GaussianPolicy::log_prob_cotangent(const double* mu, const la::Vec& a,
                                        double coef, double* dl_dmu,
                                        la::Vec& log_std_grads) const {
  for (std::size_t i = 0; i < log_std_.size(); ++i) {
    const double var = std::exp(2.0 * log_std_[i]);
    // d logpi / d mu = (a - mu)/var; we accumulate -coef * dlogpi.
    dl_dmu[i] = -coef * (a[i] - mu[i]) / var;
    // d logpi / d log_std = z^2 - 1.
    const double z2 =
        (a[i] - mu[i]) * (a[i] - mu[i]) / var;
    log_std_grads[i] += -coef * (z2 - 1.0);
  }
}

void GaussianPolicy::kl_cotangent(const double* mu, const la::Vec& mu_old,
                                  const la::Vec& std_old, double coef,
                                  double* dl_dmu,
                                  la::Vec& log_std_grads) const {
  for (std::size_t i = 0; i < log_std_.size(); ++i) {
    const double var_new = std::exp(2.0 * log_std_[i]);
    const double diff = mu[i] - mu_old[i];
    // dKL/dmu_new = (mu_new - mu_old)/var_new.
    dl_dmu[i] = coef * diff / var_new;
    // dKL/dlog_std_new = 1 - (var_old + diff^2)/var_new.
    const double var_old = std_old[i] * std_old[i];
    log_std_grads[i] += coef * (1.0 - (var_old + diff * diff) / var_new);
  }
}

double GaussianPolicy::entropy() const {
  double h = 0.0;
  for (double ls : log_std_)
    h += ls + 0.5 * std::log(2.0 * std::numbers::pi * std::numbers::e);
  return h;
}

void GaussianPolicy::accumulate_entropy_gradient(double coef,
                                                 la::Vec& log_std_grads) const {
  // dH/dlog_std_i = 1; accumulate -coef so descending increases entropy.
  for (std::size_t i = 0; i < log_std_grads.size(); ++i)
    log_std_grads[i] += -coef;
}

}  // namespace cocktail::rl
