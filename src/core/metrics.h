// The paper's three evaluation metrics:
//   Property 1 — control robustness: safe control rate Sr over sampled
//                initial states, under a given perturbation model;
//   Property 2 — control energy efficiency: mean Σ_t ||u||₁ over the safe
//                trajectories (Eq. (3), evaluated by sampling X0);
//   Property 3 — verifiability: measured by src/verify (wall-clock time).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "attack/perturbation.h"
#include "control/controller.h"
#include "core/rollout.h"
#include "sys/system.h"

namespace cocktail::core {

struct EvalConfig {
  int num_initial_states = 500;  ///< the paper samples 500 per system.
  std::uint64_t seed = 12345;
  /// Null = evaluate without attacks or noises (Table I).
  attack::PerturbationPtr perturbation;
};

struct EvalResult {
  double safe_rate = 0.0;     ///< Sr ∈ [0, 1].
  /// e over safe trajectories; NaN when num_safe == 0 (the mean is
  /// undefined, and 0.0 would let an all-unsafe candidate pose as a
  /// zero-energy one).  Same convention — and same NaN default for the
  /// num_safe == 0 state a fresh struct starts in — as
  /// PairedOutcome::energy_a/b.
  double mean_energy = std::numeric_limits<double>::quiet_NaN();
  int num_safe = 0;
  int num_total = 0;
};

/// Monte-Carlo evaluation: same seeds sample the same initial states, so
/// controllers are compared on a common set (paired comparison).  The
/// rollouts run as one core::batch_rollout, so the result is the same for
/// any pool width.
[[nodiscard]] EvalResult evaluate(const sys::System& system,
                                  const ctrl::Controller& controller,
                                  const EvalConfig& config);

/// Sr and mean safe-trajectory energy over results[begin, begin + count).
/// The single aggregation shared by evaluate() and the benches, so sliced
/// multi-attack batches can never drift from Table I semantics.
[[nodiscard]] EvalResult summarize_rollouts(
    const std::vector<RolloutResult>& results, std::size_t begin,
    std::size_t count);

/// Reports the controller's certified Lipschitz bound, or a negative value
/// when unavailable (Table I prints "-").
[[nodiscard]] double lipschitz_metric(const ctrl::Controller& controller);

/// Table display of EvalResult::mean_energy (and PairedOutcome::energy_a/b):
/// "-" when NaN (no safe trajectory to average over), 1-decimal fixed
/// otherwise.  CSVs keep util::format_number, which spells NaN out as "nan".
[[nodiscard]] std::string format_energy(double mean_energy);

}  // namespace cocktail::core
