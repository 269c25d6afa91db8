#include "core/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/rollout.h"

namespace cocktail::core {

EvalResult evaluate(const sys::System& system,
                    const ctrl::Controller& controller,
                    const EvalConfig& config) {
  const std::vector<RolloutResult> rollouts = batch_rollout(
      system, controller,
      make_eval_jobs(system, config.num_initial_states, config.seed,
                     config.perturbation.get()));
  return summarize_rollouts(rollouts, 0, rollouts.size());
}

EvalResult summarize_rollouts(const std::vector<RolloutResult>& results,
                              std::size_t begin, std::size_t count) {
  if (begin > results.size() || count > results.size() - begin)
    throw std::out_of_range("summarize_rollouts: slice [" +
                            std::to_string(begin) + ", " +
                            std::to_string(begin + count) +
                            ") exceeds batch of " +
                            std::to_string(results.size()));
  EvalResult out;
  out.num_total = static_cast<int>(count);
  // Serial and in job order, so the floating-point sum is identical for
  // every worker count.
  double energy_sum = 0.0;
  for (std::size_t i = begin; i < begin + count; ++i) {
    if (results[i].safe) {
      ++out.num_safe;
      energy_sum += results[i].energy;
    }
  }
  out.safe_rate = count == 0 ? 0.0
                             : static_cast<double>(out.num_safe) /
                                   static_cast<double>(count);
  // Mean energy over *safe* trajectories is undefined when none is safe.
  // NaN (not 0.0) keeps an all-unsafe candidate from masquerading as a
  // zero-energy one — the same convention PairedOutcome::energy_a/b uses.
  out.mean_energy = out.num_safe == 0
                        ? std::numeric_limits<double>::quiet_NaN()
                        : energy_sum / out.num_safe;
  return out;
}

std::string format_energy(double mean_energy) {
  if (std::isnan(mean_energy)) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", mean_energy);
  return buf;
}

double lipschitz_metric(const ctrl::Controller& controller) {
  return controller.lipschitz_bound();
}

}  // namespace cocktail::core
