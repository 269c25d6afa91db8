// `design` workload: the Van der Pol training pipeline from the workload
// seed — experts κ1, κ2 (DDPG) → AW (PPO) → AS (categorical PPO) → κD, κ*
// (distillation) — then κ* evaluated on 500 initial states, clean and under
// FGSM at Δ = 10%.  The training layers (rl, nn backward, core distill,
// attack FGSM) do the work; verify and serve do none.
#include <cmath>
#include <memory>

#include "attack/fgsm.h"
#include "attack/perturbation.h"
#include "common.h"
#include "core/metrics.h"
#include "core/mixing.h"
#include "sys/registry.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace cocktail;

namespace {

constexpr int kEvalStates = 500;
constexpr double kAttackFraction = 0.10;

/// The design-budget divisor applied to the default PPO iterations and
/// distillation epochs.
constexpr int kBudgetDivisor = 4;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

core::EvalConfig eval_config(std::uint64_t seed,
                             attack::PerturbationPtr perturbation) {
  core::EvalConfig config;
  config.num_initial_states = kEvalStates;
  config.seed = util::derive_seed(seed, 71);
  config.perturbation = std::move(perturbation);
  return config;
}

/// Everything the design job consumes besides training itself.
struct Inputs {
  sys::SystemPtr system;
  Plan plan;
  core::EvalConfig clean;
  core::EvalConfig attacked;
};

Inputs prepare(std::uint64_t seed) {
  Inputs in;
  in.system = sys::make_system("vanderpol");
  in.plan = make_plan(*in.system, seed, Budget::kDesign);
  in.clean = eval_config(seed, nullptr);
  in.attacked = eval_config(
      seed, std::make_shared<attack::FgsmAttack>(
                attack::perturbation_bound(*in.system, kAttackFraction)));
  return in;
}

struct DesignRun {
  Students students;
  core::EvalResult clean;
  core::EvalResult attacked;
  double job_s = 0.0;
};

DesignRun design_job(const Inputs& in) {
  const Span span("design.job");
  DesignRun run;
  const std::int64_t start = now_ns();
  run.students = train_students(in.system, in.plan);
  {
    const Span eval_span("core.evaluate");
    run.clean = core::evaluate(*in.system, *run.students.robust.student,
                               in.clean);
  }
  {
    const Span fgsm_span("attack.fgsm_eval");
    run.attacked = core::evaluate(*in.system, *run.students.robust.student,
                                  in.attacked);
  }
  run.job_s = seconds_since(start);
  return run;
}

}  // namespace

Plan make_plan(const sys::System& system, std::uint64_t seed, Budget budget) {
  Plan plan;
  core::PipelineConfig& config = plan.config;
  config = core::default_pipeline_config(system.name());
  config.seed = seed;
  config.use_cache = false;
  config.mixing.ppo.seed = util::derive_seed(seed, 61);
  config.switching.ppo.seed = util::derive_seed(seed, 62);
  config.distill.seed = util::derive_seed(seed, 63);
  // Same observation noise run_pipeline applies to the adaptation stages.
  config.mixing.reward.observation_noise =
      attack::perturbation_bound(system, 0.03);
  config.switching.reward.observation_noise =
      config.mixing.reward.observation_noise;
  if (budget == Budget::kDesign) {
    config.mixing.ppo.iterations =
        ceil_div(config.mixing.ppo.iterations, kBudgetDivisor);
    config.switching.ppo.iterations =
        ceil_div(config.switching.ppo.iterations, kBudgetDivisor);
    config.distill.epochs = ceil_div(config.distill.epochs, kBudgetDivisor);
  } else {
    // tests/test_integration.cpp's tiny_pipeline_config() budget.
    for (rl::PpoConfig* ppo : {&config.mixing.ppo, &config.switching.ppo}) {
      ppo->iterations = 4;
      ppo->steps_per_iteration = 400;
      ppo->update_epochs = 3;
    }
    config.distill.teacher_rollouts = 4;
    config.distill.uniform_samples = 500;
    config.distill.epochs = 30;
  }

  plan.experts = core::default_expert_specs(system.name(), seed);
  for (auto& spec : plan.experts) {
    // A target above 1 is never within reach, so every expert runs its
    // full episode count: the same amount of work for every seed (the
    // default early stop makes expert time swing 2x between seeds).
    spec.target_safe_rate = 2.0;
    if (budget == Budget::kTiny) {
      spec.ddpg.episodes = 12;
      spec.ddpg.warmup_steps = 200;
    }
  }
  return plan;
}

Students train_students(const sys::SystemPtr& system, const Plan& plan) {
  const core::PipelineConfig& config = plan.config;
  Students out;
  {
    const Span span("core.experts");
    for (const auto& spec : plan.experts)
      out.experts.push_back(core::train_ddpg_expert(system, spec));
    if (system->name() == "threed")
      out.experts.push_back(core::make_threed_polynomial_expert(*system));
  }
  const std::int64_t ppo_start = now_ns();
  {
    const Span span("core.mixing");
    out.mixed = core::train_adaptive_mixing(system, out.experts, config.mixing)
                    .controller;
  }
  {
    const Span span("core.switching");
    out.switching =
        core::train_switching(system, out.experts, config.switching).controller;
  }
  out.ppo_s = seconds_since(ppo_start);
  out.ppo_env_steps =
      static_cast<long>(config.mixing.ppo.iterations) *
          config.mixing.ppo.steps_per_iteration +
      static_cast<long>(config.switching.ppo.iterations) *
          config.switching.ppo.steps_per_iteration;
  {
    const Span span("core.distill_kd");
    out.direct =
        core::distill(*system, *out.mixed, config.distill.direct(), "kD");
  }
  {
    const Span span("core.distill_kstar");
    out.robust = core::distill(*system, *out.mixed, config.distill, "k*");
  }
  out.distill_samples =
      static_cast<long>(out.direct.dataset_size + out.robust.dataset_size) *
      config.distill.epochs;
  return out;
}

void run_design(const Args& args, Report& report) {
  const Inputs in = set_up(report, [&] { return prepare(args.seed); });
  if (args.setup_only) return;

  std::vector<DesignRun> runs;
  repeat_for(args.seconds, [&] {
    runs.push_back(design_job(in));
    return runs.back().job_s;
  });

  std::vector<double> job_s, work_rate;
  for (const DesignRun& run : runs) {
    job_s.push_back(run.job_s);
    work_rate.push_back(static_cast<double>(run.students.ppo_env_steps) /
                        run.students.ppo_s);
  }
  report.e2e("job_s", median(job_s), "s");
  report.e2e("work_per_s", median(work_rate), "1/s");

  // ---- output checks and exact counters ----------------------------------
  const DesignRun& run = runs.front();
  const Students& s = run.students;
  const double l_star = s.robust.student->lipschitz_bound();
  const double l_d = s.direct.student->lipschitz_bound();
  report.check(std::isfinite(l_star) && l_star > 0.0,
               "k* carries a finite certified Lipschitz bound");
  report.check(std::isfinite(l_d) && l_d > 0.0,
               "kD carries a finite certified Lipschitz bound");
  report.check(run.clean.num_total == kEvalStates &&
                   run.attacked.num_total == kEvalStates,
               "evaluation rolled out every initial state");
  for (const DesignRun& other : runs)
    report.check(network_digest(*other.students.robust.student) ==
                         network_digest(*s.robust.student) &&
                     other.attacked.safe_rate == run.attacked.safe_rate,
                 "repeated training from one seed is bitwise identical");

  report.exact_count("rl.ppo.env_steps", s.ppo_env_steps);
  report.exact_count("core.distill.samples", s.distill_samples);
  report.exact_count("core.evaluate.rollouts", 2L * kEvalStates);
  report.exact_count("core.distill.dataset", static_cast<long long>(
                                                 s.robust.dataset_size));
  report.exact_value("core.kstar.lipschitz", l_star);
  report.exact_value("core.kd.lipschitz", l_d);
  report.exact_value("core.kstar.sr_clean", run.clean.safe_rate);
  report.exact_value("core.kstar.sr_fgsm", run.attacked.safe_rate);
  for (std::size_t i = 0; i < s.experts.size(); ++i)
    report.exact["digest.expert" + std::to_string(i + 1)] =
        network_digest(*s.experts[i]);
  report.exact["digest.kd"] = network_digest(*s.direct.student);
  report.exact["digest.kstar"] = network_digest(*s.robust.student);

  report.layer("rl.ppo.env_steps", static_cast<double>(s.ppo_env_steps),
               "count");
  report.layer("core.distill.samples", static_cast<double>(s.distill_samples),
               "count");
  report.layer("core.evaluate.rollouts", 2.0 * kEvalStates, "count");
  report.layer("core.kstar.lipschitz", l_star, "ratio");
  report.layer("core.kd.lipschitz", l_d, "ratio");
  report.layer("core.kstar.sr_fgsm", run.attacked.safe_rate, "ratio");
  report.info["design.repeats"] = std::to_string(runs.size());
}

}  // namespace perfbench
