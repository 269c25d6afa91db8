#include "core/envs.h"

#include <cmath>
#include <stdexcept>

namespace cocktail::core {

double default_energy_coef(const sys::System& system) {
  const sys::Box u = system.control_bounds();
  double max_l1 = 0.0;
  for (std::size_t i = 0; i < u.dim(); ++i)
    max_l1 += std::max(std::abs(u.lo[i]), std::abs(u.hi[i]));
  return max_l1 > 0.0 ? 1.0 / (2.0 * max_l1) : 0.0;
}

double safety_shaped_reward(const sys::System& system,
                            const la::Vec& next_state, const la::Vec& control,
                            const SafetyRewardConfig& config,
                            double energy_coef, bool& violated) {
  violated = !system.is_safe(next_state);
  if (violated) return config.unsafe_punishment;
  double reward = 1.0 - energy_coef * la::norm_l1(control);
  if (config.boundary_margin > 0.0 && config.margin_penalty > 0.0) {
    // Relative distance to the closest finite boundary of X, in [0, 1].
    const sys::Box x = system.safe_region();
    double rel = 0.0;
    for (std::size_t i = 0; i < next_state.size(); ++i) {
      if (!std::isfinite(x.lo[i]) || !std::isfinite(x.hi[i])) continue;
      const double half = 0.5 * (x.hi[i] - x.lo[i]);
      const double mid = 0.5 * (x.hi[i] + x.lo[i]);
      if (half > 0.0)
        rel = std::max(rel, std::abs(next_state[i] - mid) / half);
    }
    const double onset = 1.0 - config.boundary_margin;
    if (rel > onset)
      reward -= config.margin_penalty * (rel - onset) / config.boundary_margin;
  }
  return reward;
}

la::Vec observe(const la::Vec& true_state, const la::Vec& bound,
                util::Rng& rng) {
  if (bound.empty()) return true_state;
  if (bound.size() != true_state.size())
    throw std::invalid_argument("observe: noise bound dimension mismatch");
  la::Vec obs = true_state;
  for (std::size_t i = 0; i < obs.size(); ++i)
    obs[i] += rng.uniform(-bound[i], bound[i]);
  return obs;
}

// ---------------------------------------------------------------------------
// ExpertTrainingEnv
// ---------------------------------------------------------------------------

ExpertTrainingEnv::ExpertTrainingEnv(sys::SystemPtr system, Config config)
    : system_(std::move(system)), config_(std::move(config)) {
  if (!system_) throw std::invalid_argument("ExpertTrainingEnv: null system");
  state_norm_ = system_->sampling_region().half_widths();
  for (auto& v : state_norm_)
    if (v <= 0.0) v = 1.0;
  if (config_.state_weights.empty())
    config_.state_weights = la::constant(system_->state_dim(), 1.0);
  if (config_.state_weights.size() != system_->state_dim())
    throw std::invalid_argument("ExpertTrainingEnv: state_weights dim");
}

std::size_t ExpertTrainingEnv::state_dim() const {
  return system_->state_dim();
}

std::size_t ExpertTrainingEnv::action_dim() const {
  return system_->control_dim();
}

int ExpertTrainingEnv::max_episode_steps() const { return system_->horizon(); }

la::Vec ExpertTrainingEnv::do_reset(util::Rng& rng) {
  true_state_ = system_->sample_initial_state(rng);
  return observe(true_state_, config_.observation_noise, rng);
}

rl::StepResult ExpertTrainingEnv::do_step(const la::Vec& action, util::Rng& rng) {
  // Action in [-1,1]^m -> control input in action_scale * U.
  const sys::Box bounds = system_->control_bounds();
  la::Vec u(action.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double half = 0.5 * (bounds.hi[i] - bounds.lo[i]);
    const double mid = 0.5 * (bounds.hi[i] + bounds.lo[i]);
    u[i] = mid + config_.action_scale * half * action[i];
  }
  u = system_->clip_control(u);
  const la::Vec omega = system_->sample_disturbance(rng);
  true_state_ = system_->step(true_state_, u, omega);

  rl::StepResult result;
  result.next_state = observe(true_state_, config_.observation_noise, rng);
  if (!system_->is_safe(true_state_)) {
    result.reward = config_.unsafe_punishment;
    result.terminal = true;
    return result;
  }
  double cost = 0.0;
  for (std::size_t i = 0; i < true_state_.size(); ++i) {
    const double z = true_state_[i] / state_norm_[i];
    cost += config_.state_weights[i] * z * z;
  }
  double u_cost = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double half = 0.5 * (bounds.hi[i] - bounds.lo[i]);
    const double zu = half > 0.0 ? u[i] / half : u[i];
    u_cost += zu * zu;
  }
  result.reward = 1.0 - cost - config_.control_weight * u_cost;
  return result;
}

// ---------------------------------------------------------------------------
// MixingEnv
// ---------------------------------------------------------------------------

MixingEnv::MixingEnv(sys::SystemPtr system,
                     std::vector<ctrl::ControllerPtr> experts,
                     double weight_bound, SafetyRewardConfig reward)
    : system_(std::move(system)), experts_(std::move(experts)),
      weight_bound_(weight_bound), reward_(std::move(reward)) {
  if (!system_) throw std::invalid_argument("MixingEnv: null system");
  if (experts_.empty()) throw std::invalid_argument("MixingEnv: no experts");
  if (weight_bound_ < 1.0)
    throw std::invalid_argument("MixingEnv: the paper requires AB >= 1");
  energy_coef_ = reward_.energy_coef > 0.0 ? reward_.energy_coef
                                           : default_energy_coef(*system_);
}

std::size_t MixingEnv::state_dim() const { return system_->state_dim(); }

std::size_t MixingEnv::action_dim() const { return experts_.size(); }

int MixingEnv::max_episode_steps() const { return system_->horizon(); }

la::Vec MixingEnv::do_reset(util::Rng& rng) {
  true_state_ = system_->sample_initial_state(rng);
  return observe(true_state_, reward_.observation_noise, rng);
}

rl::StepResult MixingEnv::do_step(const la::Vec& action, util::Rng& rng) {
  if (action.size() != experts_.size())
    throw std::invalid_argument("MixingEnv::step: bad action dimension");
  // The controllers read the same (possibly noisy) observation the policy
  // saw; the plant evolves from the true state.
  const la::Vec obs = observe(true_state_, reward_.observation_noise, rng);
  la::Vec u = la::zeros(system_->control_dim());
  for (std::size_t i = 0; i < experts_.size(); ++i)
    la::axpy(u, weight_bound_ * action[i], experts_[i]->act(obs));
  u = system_->clip_control(u);  // Eq. (4) feasibility clip.
  const la::Vec omega = system_->sample_disturbance(rng);
  true_state_ = system_->step(true_state_, u, omega);

  rl::StepResult result;
  result.next_state = observe(true_state_, reward_.observation_noise, rng);
  bool violated = false;
  result.reward = safety_shaped_reward(*system_, true_state_, u, reward_,
                                       energy_coef_, violated);
  result.terminal = violated;
  return result;
}

// ---------------------------------------------------------------------------
// FiniteWeightedEnv
// ---------------------------------------------------------------------------

FiniteWeightedEnv::FiniteWeightedEnv(sys::SystemPtr system,
                                     std::vector<ctrl::ControllerPtr> experts,
                                     std::vector<la::Vec> weight_table,
                                     SafetyRewardConfig reward)
    : system_(std::move(system)), experts_(std::move(experts)),
      weight_table_(std::move(weight_table)), reward_(std::move(reward)) {
  if (!system_) throw std::invalid_argument("FiniteWeightedEnv: null system");
  if (experts_.empty())
    throw std::invalid_argument("FiniteWeightedEnv: no experts");
  if (weight_table_.empty())
    throw std::invalid_argument("FiniteWeightedEnv: empty weight table");
  for (const auto& w : weight_table_)
    if (w.size() != experts_.size())
      throw std::invalid_argument("FiniteWeightedEnv: table arity mismatch");
  energy_coef_ = reward_.energy_coef > 0.0 ? reward_.energy_coef
                                           : default_energy_coef(*system_);
}

std::size_t FiniteWeightedEnv::state_dim() const {
  return system_->state_dim();
}

std::size_t FiniteWeightedEnv::action_dim() const {
  return weight_table_.size();
}

int FiniteWeightedEnv::max_episode_steps() const { return system_->horizon(); }

la::Vec FiniteWeightedEnv::do_reset(util::Rng& rng) {
  true_state_ = system_->sample_initial_state(rng);
  return observe(true_state_, reward_.observation_noise, rng);
}

rl::StepResult FiniteWeightedEnv::do_step(const la::Vec& action, util::Rng& rng) {
  if (action.empty())
    throw std::invalid_argument("FiniteWeightedEnv::step: empty action");
  const auto index = static_cast<std::size_t>(action[0]);
  if (index >= weight_table_.size())
    throw std::invalid_argument("FiniteWeightedEnv::step: index out of range");
  const la::Vec obs = observe(true_state_, reward_.observation_noise, rng);
  la::Vec u = la::zeros(system_->control_dim());
  for (std::size_t i = 0; i < experts_.size(); ++i)
    la::axpy(u, weight_table_[index][i], experts_[i]->act(obs));
  u = system_->clip_control(u);
  const la::Vec omega = system_->sample_disturbance(rng);
  true_state_ = system_->step(true_state_, u, omega);

  rl::StepResult result;
  result.next_state = observe(true_state_, reward_.observation_noise, rng);
  bool violated = false;
  result.reward = safety_shaped_reward(*system_, true_state_, u, reward_,
                                       energy_coef_, violated);
  result.terminal = violated;
  return result;
}

// ---------------------------------------------------------------------------
// SwitchingEnv
// ---------------------------------------------------------------------------

SwitchingEnv::SwitchingEnv(sys::SystemPtr system,
                           std::vector<ctrl::ControllerPtr> experts,
                           SafetyRewardConfig reward)
    : system_(std::move(system)), experts_(std::move(experts)),
      reward_(std::move(reward)) {
  if (!system_) throw std::invalid_argument("SwitchingEnv: null system");
  if (experts_.empty()) throw std::invalid_argument("SwitchingEnv: no experts");
  energy_coef_ = reward_.energy_coef > 0.0 ? reward_.energy_coef
                                           : default_energy_coef(*system_);
}

std::size_t SwitchingEnv::state_dim() const { return system_->state_dim(); }

std::size_t SwitchingEnv::action_dim() const { return experts_.size(); }

int SwitchingEnv::max_episode_steps() const { return system_->horizon(); }

la::Vec SwitchingEnv::do_reset(util::Rng& rng) {
  true_state_ = system_->sample_initial_state(rng);
  return observe(true_state_, reward_.observation_noise, rng);
}

rl::StepResult SwitchingEnv::do_step(const la::Vec& action, util::Rng& rng) {
  if (action.empty())
    throw std::invalid_argument("SwitchingEnv::step: empty action");
  const auto index = static_cast<std::size_t>(action[0]);
  if (index >= experts_.size())
    throw std::invalid_argument("SwitchingEnv::step: expert index out of range");
  const la::Vec obs = observe(true_state_, reward_.observation_noise, rng);
  const la::Vec u = system_->clip_control(experts_[index]->act(obs));
  const la::Vec omega = system_->sample_disturbance(rng);
  true_state_ = system_->step(true_state_, u, omega);

  rl::StepResult result;
  result.next_state = observe(true_state_, reward_.observation_noise, rng);
  bool violated = false;
  result.reward = safety_shaped_reward(*system_, true_state_, u, reward_,
                                       energy_coef_, violated);
  result.terminal = violated;
  return result;
}

}  // namespace cocktail::core
