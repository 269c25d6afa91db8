#include "core/rollout.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace cocktail::core {

RolloutResult rollout(const sys::System& system,
                      const ctrl::Controller& controller,
                      const la::Vec& initial_state,
                      const attack::PerturbationModel* perturbation,
                      util::Rng& rng, const RolloutConfig& config) {
  const int horizon = config.horizon > 0 ? config.horizon : system.horizon();
  RolloutResult result;
  la::Vec s = initial_state;
  if (config.record_trajectory) result.states.push_back(s);
  if (!system.is_safe(s)) {
    result.safe = false;
    result.final_state = s;
    return result;
  }
  for (int t = 0; t < horizon; ++t) {
    la::Vec observed = s;
    if (perturbation != nullptr)
      la::axpy(observed, 1.0, perturbation->perturb(s, controller, rng));
    const la::Vec u = system.clip_control(controller.act(observed));
    result.energy += la::norm_l1(u);
    const la::Vec omega = system.sample_disturbance(rng);
    s = system.step(s, u, omega);
    ++result.steps_taken;
    if (config.record_trajectory) {
      result.states.push_back(s);
      result.controls.push_back(u);
    }
    if (!system.is_safe(s)) {
      result.safe = false;
      break;
    }
  }
  result.final_state = s;
  return result;
}

std::vector<RolloutResult> batch_rollout(const sys::System& system,
                                         const ctrl::Controller& controller,
                                         const std::vector<RolloutJob>& jobs,
                                         const RolloutConfig& config) {
  std::vector<RolloutResult> results(jobs.size());
  // Each rollout i derives its own RNG stream and writes only results[i],
  // so scheduling order cannot reach the outputs.
  util::run_chunks(&util::ThreadPool::shared(), jobs.size(),
                   [&](std::size_t i) {
                     util::Rng rng(jobs[i].seed);
                     results[i] =
                         rollout(system, controller, jobs[i].initial_state,
                                 jobs[i].perturbation, rng, config);
                   });
  return results;
}

PairedRolloutResults batch_rollout_paired(const sys::System& system,
                                          const ctrl::Controller& a,
                                          const ctrl::Controller& b,
                                          const std::vector<RolloutJob>& jobs,
                                          const RolloutConfig& config) {
  const std::size_t n = jobs.size();
  PairedRolloutResults results;
  results.a.resize(n);
  results.b.resize(n);
  // One fused 2N stream: index i < n is job i under `a`, index n + k is job
  // k under `b`.  Each unit re-seeds from its job, so the fusion cannot
  // change any trajectory.
  util::run_chunks(&util::ThreadPool::shared(), 2 * n, [&](std::size_t i) {
    const bool first = i < n;
    const RolloutJob& job = jobs[first ? i : i - n];
    util::Rng rng(job.seed);
    RolloutResult& out = first ? results.a[i] : results.b[i - n];
    out = rollout(system, first ? a : b, job.initial_state, job.perturbation,
                  rng, config);
  });
  return results;
}

std::vector<RolloutJob> make_eval_jobs(
    const sys::System& system, int num_initial_states, std::uint64_t seed,
    const attack::PerturbationModel* perturbation) {
  std::vector<RolloutJob> jobs;
  jobs.reserve(static_cast<std::size_t>(std::max(num_initial_states, 0)));
  util::Rng init_rng(util::derive_seed(seed, 1));
  for (int k = 0; k < num_initial_states; ++k) {
    RolloutJob job;
    job.initial_state = system.sample_initial_state(init_rng);
    // Fresh, per-trajectory stream for disturbances/noise so adding
    // trajectories never shifts earlier ones.
    job.seed = util::derive_seed(seed, 1000 + static_cast<std::uint64_t>(k));
    job.perturbation = perturbation;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace cocktail::core
