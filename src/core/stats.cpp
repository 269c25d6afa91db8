#include "core/stats.h"

#include <cmath>

#include "core/rollout.h"

namespace cocktail::core {

RateInterval wilson_interval(int successes, int total, double z) {
  if (total <= 0) return {0.0, 1.0};
  const double n = total;
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double PairedOutcome::safe_rate_difference() const {
  const int n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(only_a_safe - only_b_safe) / n;
}

PairedOutcome evaluate_paired(const sys::System& system,
                              const ctrl::Controller& a,
                              const ctrl::Controller& b,
                              const EvalConfig& config) {
  PairedOutcome outcome;
  // One shared job grid: identical initial states and identical disturbance
  // streams for both controllers (the paired design).
  const std::vector<RolloutJob> jobs = make_eval_jobs(
      system, config.num_initial_states, config.seed,
      config.perturbation.get());
  // Fused 2N-job stream: both controllers' rollouts interleave on the pool
  // instead of running as two half-width batches.
  const PairedRolloutResults results = batch_rollout_paired(system, a, b, jobs);
  double energy_a_sum = 0.0, energy_b_sum = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const RolloutResult& ra = results.a[k];
    const RolloutResult& rb = results.b[k];
    if (ra.safe && rb.safe) {
      ++outcome.both_safe;
      energy_a_sum += ra.energy;
      energy_b_sum += rb.energy;
    } else if (ra.safe) {
      ++outcome.only_a_safe;
    } else if (rb.safe) {
      ++outcome.only_b_safe;
    } else {
      ++outcome.neither_safe;
    }
  }
  if (outcome.both_safe > 0) {
    outcome.energy_a = energy_a_sum / outcome.both_safe;
    outcome.energy_b = energy_b_sum / outcome.both_safe;
  }
  return outcome;
}

}  // namespace cocktail::core
