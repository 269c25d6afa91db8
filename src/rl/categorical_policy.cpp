#include "rl/categorical_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cocktail::rl {

la::Vec softmax(const la::Vec& logits) {
  return softmax(logits.data(), logits.size());
}

la::Vec softmax(const double* logits, std::size_t n) {
  if (n == 0) throw std::invalid_argument("rl::softmax: empty logit row");
  const double max_logit = *std::max_element(logits, logits + n);
  la::Vec p(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::exp(logits[i] - max_logit);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

CategoricalPolicy::CategoricalPolicy(std::size_t state_dim,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t num_actions,
                                     std::uint64_t seed)
    : logits_net_(nn::Mlp::make(state_dim, hidden, num_actions,
                                nn::Activation::kTanh,
                                nn::Activation::kIdentity, seed)) {
  if (num_actions == 0)
    throw std::invalid_argument("CategoricalPolicy: no actions");
}

la::Vec CategoricalPolicy::probabilities(const la::Vec& s) const {
  return softmax(logits_net_.forward(s));
}

CategoricalPolicy::Sample CategoricalPolicy::sample(const la::Vec& s,
                                                    util::Rng& rng) const {
  const la::Vec p = probabilities(s);
  const double draw = rng.uniform();
  double cum = 0.0;
  Sample out;
  out.action = p.size() - 1;  // guard against rounding: default to last.
  for (std::size_t i = 0; i < p.size(); ++i) {
    cum += p[i];
    if (draw < cum) {
      out.action = i;
      break;
    }
  }
  out.log_prob = log_prob_of(p, out.action);
  return out;
}

double CategoricalPolicy::log_prob(const la::Vec& s,
                                   std::size_t action) const {
  return log_prob_of(probabilities(s), action);
}

double CategoricalPolicy::log_prob_of(const la::Vec& p, std::size_t action) {
  if (action >= p.size())
    throw std::invalid_argument("CategoricalPolicy::log_prob: bad action");
  return std::log(std::max(p[action], 1e-300));
}

std::size_t CategoricalPolicy::greedy(const la::Vec& s) const {
  const la::Vec logits = logits_net_.forward(s);
  return static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double CategoricalPolicy::kl_from(const la::Vec& probs_old,
                                  const la::Vec& s) const {
  const la::Vec p = probabilities(s);
  double kl = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (probs_old[i] <= 0.0) continue;
    kl += probs_old[i] *
          (std::log(probs_old[i]) - std::log(std::max(p[i], 1e-300)));
  }
  return std::max(kl, 0.0);
}

void CategoricalPolicy::log_prob_cotangent(const la::Vec& p,
                                           std::size_t action, double coef,
                                           double* dl_dlogits) {
  // d log p(a) / d logit_j = 1[j==a] - p_j; accumulate -coef * that.
  for (std::size_t j = 0; j < p.size(); ++j)
    dl_dlogits[j] = -coef * ((j == action ? 1.0 : 0.0) - p[j]);
}

void CategoricalPolicy::kl_cotangent(const la::Vec& p,
                                     const la::Vec& probs_old, double coef,
                                     double* dl_dlogits) {
  // d KL(p_old || p_new) / d logit_j = p_new_j - p_old_j.
  for (std::size_t j = 0; j < p.size(); ++j)
    dl_dlogits[j] = coef * (p[j] - probs_old[j]);
}

}  // namespace cocktail::rl
