#include "core/pipeline.h"

#include <stdexcept>

#include "attack/perturbation.h"
#include "core/expert_trainer.h"
#include "util/logging.h"
#include "util/paths.h"

namespace cocktail::core {
namespace {

std::string cache_path(const std::string& system_name, const std::string& kind,
                       std::uint64_t seed, const std::string& ext) {
  // Versioned by util::kModelCacheVersion: RNG-stream or format changes bump
  // the version and stale artifacts stop matching instead of poisoning runs.
  return util::model_cache_path(system_name, kind, seed, ext);
}

std::shared_ptr<const ctrl::NnController> load_or_distill(
    const sys::System& system, const ctrl::Controller& teacher,
    const DistillConfig& config, const std::string& label,
    const std::string& path, bool use_cache) {
  if (use_cache && util::file_exists(path)) {
    COCKTAIL_INFO << "loading cached student " << path;
    return std::make_shared<ctrl::NnController>(
        ctrl::NnController::load_file(path, label));
  }
  const DistillResult result = distill(system, teacher, config, label);
  if (use_cache) result.student->save_file(path);
  return result.student;
}

}  // namespace

std::vector<std::pair<std::string, ctrl::ControllerPtr>>
PipelineArtifacts::table_row_controllers() const {
  std::vector<std::pair<std::string, ctrl::ControllerPtr>> rows;
  for (std::size_t i = 0; i < experts.size(); ++i)
    rows.emplace_back("k" + std::to_string(i + 1), experts[i]);
  rows.emplace_back("AS", switching);
  rows.emplace_back("AW", mixed);
  rows.emplace_back("kD", direct_student);
  rows.emplace_back("k*", robust_student);
  return rows;
}

PipelineConfig default_pipeline_config(const std::string& system_name) {
  PipelineConfig config;
  config.seed = 2024;

  // --- adaptive mixing (PPO) ---
  config.mixing.weight_bound = 1.5;
  config.mixing.ppo.policy_hidden = {64, 64};
  config.mixing.ppo.value_hidden = {64, 64};
  config.mixing.ppo.iterations = 70;
  config.mixing.ppo.steps_per_iteration = 2000;
  config.mixing.ppo.update_epochs = 6;
  config.mixing.ppo.initial_std = 0.35;
  config.mixing.ppo.seed = util::derive_seed(config.seed, 61);

  // --- switching baseline (categorical PPO) ---
  config.switching.ppo = config.mixing.ppo;
  config.switching.ppo.seed = util::derive_seed(config.seed, 62);

  // --- robust distillation ---
  // A single hidden layer keeps the certified Lipschitz product tight (the
  // layer-norm product accumulates slack per layer), which is what makes
  // the student verifiable within reasonable Bernstein degrees.
  config.distill.student_hidden = {24};
  config.distill.epochs = 220;
  config.distill.adversarial_prob = 0.5;
  config.distill.lambda_l2 = 1.5e-3;
  config.distill.delta_fraction = 0.10;
  config.distill.seed = util::derive_seed(config.seed, 63);

  if (system_name == "cartpole") {
    config.mixing.ppo.iterations = 90;
    config.mixing.ppo.steps_per_iteration = 3000;
    config.switching.ppo.iterations = 90;
    config.switching.ppo.steps_per_iteration = 3000;
    // Margin shaping exists to make the Fig 3 invariant-set computation
    // feasible on the oscillator; cartpole is not formally verified in the
    // paper, and its knife-edge angle band makes the ramp counterproductive.
    config.mixing.reward.boundary_margin = 0.0;
    config.switching.reward.boundary_margin = 0.0;
    // The unstable plant needs a sharper student than the oscillator; the
    // paper's cartpole students also carry larger Lipschitz constants
    // (L = 72.5 for κ* vs 7.6 on the oscillator), and cartpole is not one
    // of the formally-verified figures.  The dataset leans on teacher
    // rollouts: uniform states far from any stabilizable trajectory would
    // waste student capacity on unreachable regions.
    config.distill.teacher_rollouts = 100;
    config.distill.uniform_samples = 1500;
    config.distill.student_hidden = {48, 48};
    // Very light robustness pressure: the paper observes κ* ≈ κD on
    // cartpole ("less significant because cartpole is an unstable
    // system"), and empirically every extra unit of FGSM/L2 pressure on
    // this knife-edge plant costs clean safe rate long before it buys
    // attack robustness — the stabilizing policy's sharp angle-velocity
    // gains are exactly what smoothing removes.  The knobs below keep
    // L(κ*) several-fold under L(κD) while matching its competence.
    config.distill.lambda_l2 = 5e-5;
    config.distill.adversarial_prob = 0.1;
    config.distill.delta_fraction = 0.025;
    config.distill.epochs = 400;
  } else if (system_name == "threed") {
    // Fig 4 needs a tight flowpipe, not an invariant set — margin shaping
    // is unnecessary here and measurably hurts the continuous-weight
    // learner on this plant (parts of X0 unavoidably transit the margin
    // band, flooding the reward with penalties).
    config.mixing.reward.boundary_margin = 0.0;
    config.switching.reward.boundary_margin = 0.0;
    // The continuous-weight policy needs noticeably more on-policy data
    // than the categorical switcher to match it on this plant; the clipped
    // surrogate stabilizes the longer run.
    config.mixing.ppo.iterations = 120;
    config.mixing.ppo.steps_per_iteration = 3000;
    config.mixing.ppo.update_epochs = 8;
    config.mixing.ppo.use_clip = true;
    config.mixing.ppo.kl_penalty_beta = 0.3;
    config.mixing.ppo.initial_std = 0.3;
    config.switching.ppo.iterations = 90;
    // A wider (still single-hidden-layer) student narrows the distillation
    // gap to the mixed teacher without giving up the tight certified L.
    config.distill.student_hidden = {40};
    config.distill.lambda_l2 = 1e-3;
    config.distill.epochs = 300;
    config.distill.uniform_samples = 6000;
  } else if (system_name != "vanderpol") {
    throw std::invalid_argument("default_pipeline_config: unknown system " +
                                system_name);
  }
  return config;
}

PipelineArtifacts run_pipeline(sys::SystemPtr system,
                               const PipelineConfig& config) {
  PipelineArtifacts artifacts;
  artifacts.system = system;

  MixingConfig mixing = config.mixing;
  SwitchingConfig switching = config.switching;
  artifacts.experts =
      load_or_train_experts(system, config.seed, config.use_cache);

  // Training-time observation noise: the MDP's state perturbation δ
  // (Section III-A "may be maliciously attacked or affected by noises").
  // Kept mild — robustness is primarily the distillation step's job, and
  // heavy observation noise destabilizes the on-policy value estimates.
  if (mixing.reward.observation_noise.empty())
    mixing.reward.observation_noise =
        attack::perturbation_bound(*system, 0.03);
  if (switching.reward.observation_noise.empty())
    switching.reward.observation_noise = mixing.reward.observation_noise;

  // --- AW: adaptive mixing ---
  const std::string weight_path =
      cache_path(system->name(), "weightnet", config.seed, "mlp");
  if (config.use_cache && util::file_exists(weight_path)) {
    COCKTAIL_INFO << "loading cached weight net " << weight_path;
    artifacts.mixed = std::make_shared<ctrl::MixedController>(
        artifacts.experts, nn::Mlp::load_file(weight_path),
        mixing.weight_bound, system->control_bounds(), "AW");
  } else {
    MixingResult result =
        train_adaptive_mixing(system, artifacts.experts, mixing);
    artifacts.mixed = result.controller;
    if (config.use_cache)
      artifacts.mixed->weight_net().save_file(weight_path);
  }

  // --- AS: switching baseline ---
  const std::string selector_path =
      cache_path(system->name(), "selector", config.seed, "mlp");
  if (config.use_cache && util::file_exists(selector_path)) {
    COCKTAIL_INFO << "loading cached selector net " << selector_path;
    artifacts.switching = std::make_shared<ctrl::SwitchedController>(
        artifacts.experts, nn::Mlp::load_file(selector_path), "AS");
  } else {
    SwitchingResult result =
        train_switching(system, artifacts.experts, switching);
    artifacts.switching = result.controller;
    if (config.use_cache) {
      const auto* as_switched = dynamic_cast<const ctrl::SwitchedController*>(
          artifacts.switching.get());
      as_switched->selector_net().save_file(selector_path);
    }
  }

  // --- students: κD (direct) and κ* (robust) ---
  artifacts.direct_student = load_or_distill(
      *system, *artifacts.mixed, config.distill.direct(), "kD",
      cache_path(system->name(), "studentD", config.seed, "nnctl"),
      config.use_cache);
  artifacts.robust_student = load_or_distill(
      *system, *artifacts.mixed, config.distill, "k*",
      cache_path(system->name(), "studentR", config.seed, "nnctl"),
      config.use_cache);
  return artifacts;
}

}  // namespace cocktail::core
