#include "core/expert_trainer.h"

#include <cmath>
#include <stdexcept>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "core/metrics.h"
#include "util/logging.h"
#include "util/paths.h"
#include "util/string_util.h"

namespace cocktail::core {
namespace {

/// Cache file for a trained expert (versioned via util::model_cache_path so
/// RNG-stream changes invalidate stale experts automatically).
std::string expert_cache_path(const std::string& system_name,
                              const std::string& label, std::uint64_t seed) {
  return util::model_cache_path(system_name, label, seed, "nnctl");
}

}  // namespace

ctrl::ControllerPtr train_ddpg_expert(sys::SystemPtr system,
                                      const ExpertSpec& spec) {
  if (spec.eval_every_episodes <= 0)
    throw std::invalid_argument(
        "train_ddpg_expert: eval_every_episodes must be positive");
  ExpertTrainingEnv env(system, spec.env);
  rl::Ddpg ddpg(spec.ddpg);
  ddpg.initialize(env);

  // The tanh actor emits [-1,1]^m; scale to the expert's control authority.
  const sys::Box bounds = system->control_bounds();
  la::Vec out_scale(system->control_dim());
  for (std::size_t i = 0; i < out_scale.size(); ++i)
    out_scale[i] = spec.env.action_scale * 0.5 * (bounds.hi[i] - bounds.lo[i]);

  EvalConfig eval;
  eval.num_initial_states = spec.eval_states;
  eval.seed = spec.eval_seed;

  // Train in chunks and keep the snapshot whose safe rate is *closest to
  // the target* — DDPG learning curves jump discontinuously (an expert can
  // leap from 70% to 97% within a few episodes), so "first above target"
  // systematically overshoots the imperfect-expert band the paper's
  // experiments rely on.  Stop once a snapshot lands within 2% of target.
  nn::Mlp best_actor;
  double best_distance = 1e9;
  double best_sr = -1.0;
  double best_energy = 0.0;
  int episodes_done = 0;
  while (episodes_done < spec.ddpg.episodes) {
    const int chunk = std::min(spec.eval_every_episodes,
                               spec.ddpg.episodes - episodes_done);
    (void)ddpg.run_episodes(env, chunk);
    episodes_done += chunk;
    const ctrl::NnController candidate(ddpg.actor(), out_scale, spec.label);
    const EvalResult result = core::evaluate(*system, candidate, eval);
    const double distance =
        std::abs(result.safe_rate - spec.target_safe_rate);
    // mean_energy is NaN when the snapshot kept nothing safe (EvalResult
    // contract): such a snapshot never wins the energy tie-break, and any
    // real energy displaces a NaN incumbent.
    const bool energy_better =
        !std::isnan(result.mean_energy) &&
        (std::isnan(best_energy) || result.mean_energy < best_energy);
    const bool better =
        distance < best_distance - 1e-9 ||
        (distance < best_distance + 1e-9 && energy_better);
    if (better) {
      best_distance = distance;
      best_sr = result.safe_rate;
      best_energy = result.mean_energy;
      best_actor = ddpg.actor();
    }
    COCKTAIL_DEBUG << "expert " << spec.label << " @" << episodes_done
                   << " episodes: Sr " << result.safe_rate;
    if (best_distance <= 0.02) break;
  }
  COCKTAIL_INFO << "expert " << spec.label << " on " << system->name()
                << ": Sr " << best_sr << " after " << episodes_done
                << " episodes (target " << spec.target_safe_rate << ")";
  return std::make_shared<ctrl::NnController>(std::move(best_actor),
                                              out_scale, spec.label);
}

ctrl::ControllerPtr make_threed_polynomial_expert(const sys::System& system) {
  // Moderate control weight keeps the gain (and thus the expert's Lipschitz
  // constant) small, matching the very small L the paper reports for the
  // model-based expert of the 3D system.
  const ctrl::LqrController lqr =
      ctrl::LqrController::synthesize(system, /*state_weight=*/1.0,
                                      /*control_weight=*/8.0, "k2");
  return std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(lqr.gain(), "k2"));
}

std::vector<ExpertSpec> default_expert_specs(const std::string& system_name,
                                             std::uint64_t seed) {
  std::vector<ExpertSpec> specs;
  // Target safe rates follow the paper's Table I expert quality (κ1/κ2:
  // 85/79.4 oscillator, 91/88.6 3D, 81.6/84 cartpole), adjusted where our
  // stricter Monte-Carlo setup caps the attainable rate (3D corners are
  // uncontrollable from parts of X0 under Euler discretization).
  if (system_name == "vanderpol") {
    ExpertSpec k1;
    k1.label = "k1";
    // Heavy exploration noise and a conservative learning rate flatten the
    // DDPG learning curve so snapshots actually pass through the paper's
    // imperfect-expert band (Sr ≈ 85%) instead of leaping over it.
    k1.ddpg.actor_hidden = {32, 32};
    k1.ddpg.critic_hidden = {64, 64};
    k1.ddpg.episodes = 150;
    k1.ddpg.ou_sigma = 0.45;
    k1.ddpg.actor_lr = 5e-4;
    k1.ddpg.seed = util::derive_seed(seed, 11);
    k1.env.action_scale = 1.0;
    k1.env.control_weight = 0.002;  // aggressive: cheap control.
    k1.target_safe_rate = 0.85;
    k1.eval_every_episodes = 5;
    specs.push_back(k1);

    ExpertSpec k2;
    k2.label = "k2";
    k2.ddpg.actor_hidden = {24, 24};
    k2.ddpg.critic_hidden = {48, 48};
    k2.ddpg.episodes = 150;
    k2.ddpg.ou_sigma = 0.15;
    k2.ddpg.seed = util::derive_seed(seed, 12);
    k2.env.action_scale = 0.5;      // limited authority...
    k2.env.control_weight = 0.05;   // ...and energy-averse.
    k2.target_safe_rate = 0.79;
    specs.push_back(k2);
  } else if (system_name == "threed") {
    ExpertSpec k1;
    k1.label = "k1";
    k1.ddpg.actor_hidden = {48, 48};
    k1.ddpg.critic_hidden = {64, 64};
    // The tight X = [-0.5, 0.5]^3 terminates most early episodes within a
    // few steps, so useful experience accumulates slowly — the budget must
    // be measured in episodes *survived*, hence the larger count.
    k1.ddpg.episodes = 500;
    k1.ddpg.warmup_steps = 1000;
    k1.ddpg.ou_sigma = 0.25;
    k1.ddpg.noise_decay = 0.995;
    k1.ddpg.seed = util::derive_seed(seed, 21);
    k1.env.action_scale = 1.0;
    k1.env.control_weight = 0.005;
    k1.target_safe_rate = 0.62;  // just below the model-based κ2's rate.
    specs.push_back(k1);
    // κ2 is the model-based polynomial controller (no DDPG spec).
  } else if (system_name == "cartpole") {
    ExpertSpec k1;
    k1.label = "k1";
    k1.ddpg.actor_hidden = {64, 64};
    k1.ddpg.critic_hidden = {64, 64};
    // Early cartpole episodes die in tens of steps (X0 reaches 96% of the
    // angle bound); several hundred episodes are needed before the replay
    // buffer sees full-length trajectories.
    k1.ddpg.episodes = 600;
    k1.ddpg.warmup_steps = 1500;
    k1.ddpg.ou_sigma = 0.25;
    k1.ddpg.noise_decay = 0.995;
    k1.ddpg.seed = util::derive_seed(seed, 31);
    k1.env.action_scale = 1.0;
    k1.env.state_weights = {0.3, 0.02, 1.0, 0.05};  // angle-focused.
    k1.env.control_weight = 0.002;
    k1.target_safe_rate = 0.80;
    specs.push_back(k1);

    ExpertSpec k2;
    k2.label = "k2";
    // Structurally capped: half the control authority and a small network
    // give this expert a natural ceiling near the paper's Sr = 84% rather
    // than relying on early stopping alone.
    k2.ddpg.actor_hidden = {24};
    k2.ddpg.critic_hidden = {64, 64};
    k2.ddpg.episodes = 350;
    k2.ddpg.warmup_steps = 1500;
    k2.ddpg.ou_sigma = 0.18;
    k2.ddpg.noise_decay = 0.995;
    k2.ddpg.seed = util::derive_seed(seed, 32);
    k2.env.action_scale = 0.5;
    k2.env.state_weights = {1.0, 0.05, 0.5, 0.02};  // position-focused.
    k2.env.control_weight = 0.05;
    k2.target_safe_rate = 0.84;
    specs.push_back(k2);
  } else {
    throw std::invalid_argument("default_expert_specs: unknown system " +
                                system_name);
  }
  return specs;
}

std::vector<ctrl::ControllerPtr> load_or_train_experts(sys::SystemPtr system,
                                                       std::uint64_t seed,
                                                       bool use_cache) {
  std::vector<ctrl::ControllerPtr> experts;
  for (const ExpertSpec& spec : default_expert_specs(system->name(), seed)) {
    const std::string path =
        expert_cache_path(system->name(), spec.label, seed);
    if (use_cache && util::file_exists(path)) {
      COCKTAIL_INFO << "loading cached expert " << path;
      experts.push_back(std::make_shared<ctrl::NnController>(
          ctrl::NnController::load_file(path, spec.label)));
      continue;
    }
    auto expert = train_ddpg_expert(system, spec);
    if (use_cache) {
      const auto* as_nn =
          dynamic_cast<const ctrl::NnController*>(expert.get());
      if (as_nn != nullptr) as_nn->save_file(path);
    }
    experts.push_back(std::move(expert));
  }
  // The 3D system's second expert is model-based (deterministic synthesis —
  // no caching required).
  if (system->name() == "threed")
    experts.push_back(make_threed_polynomial_expert(*system));
  return experts;
}

}  // namespace cocktail::core
