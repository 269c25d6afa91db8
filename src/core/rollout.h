// Closed-loop simulation of plant + controller + perturbation (paper
// Eq. (2)): the trajectory generator behind every experimental metric.
//
// At each step the controller observes s + δ (δ from the perturbation
// model), its output is clipped to U (Eq. (4)'s feasibility projection,
// applied uniformly to every baseline), the plant receives the clipped u
// and an external disturbance ω sampled from Ω.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/perturbation.h"
#include "control/controller.h"
#include "sys/system.h"
#include "util/rng.h"

namespace cocktail::core {

struct RolloutConfig {
  /// Steps to simulate; <= 0 means the system's horizon T.
  int horizon = 0;
  /// Record full state/control traces (Fig 2 needs them; metrics do not).
  bool record_trajectory = false;
};

struct RolloutResult {
  bool safe = true;          ///< every visited state stayed in X.
  int steps_taken = 0;
  double energy = 0.0;       ///< Σ_t ||u(t)||₁ (paper Eq. (3) summand).
  la::Vec final_state;
  std::vector<la::Vec> states;    ///< filled when record_trajectory.
  std::vector<la::Vec> controls;  ///< filled when record_trajectory.
};

/// Simulates from `initial_state`.  The perturbation model may be null
/// (treated as no perturbation).
[[nodiscard]] RolloutResult rollout(const sys::System& system,
                                    const ctrl::Controller& controller,
                                    const la::Vec& initial_state,
                                    const attack::PerturbationModel* perturbation,
                                    util::Rng& rng,
                                    const RolloutConfig& config = {});

// --- batched rollout engine -------------------------------------------------
//
// Every experimental metric reduces to "simulate N independent closed loops"
// over some (initial-state × RNG-seed × attack-config) grid; the batch API
// fans those across util::ThreadPool::shared().  Determinism is
// scheduling-independent by construction: each job owns a private RNG
// stream seeded from its `seed` field, so results are bitwise identical for
// any pool width, and for a call made from a pool worker, which runs the
// batch inline.

/// One independent closed-loop simulation.
struct RolloutJob {
  la::Vec initial_state;
  /// Seed of the job's private disturbance/perturbation stream (pass it
  /// through util::derive_seed to decorrelate consecutive job indices).
  std::uint64_t seed = 0;
  /// Observation perturbation for this job; null = clean rollout.  The
  /// pointee must outlive the batch call and be safe for concurrent
  /// const use (all library models are stateless).
  const attack::PerturbationModel* perturbation = nullptr;
};

/// Evaluates all jobs, each with the shared per-rollout `config`, and
/// returns results in job order.
[[nodiscard]] std::vector<RolloutResult> batch_rollout(
    const sys::System& system, const ctrl::Controller& controller,
    const std::vector<RolloutJob>& jobs, const RolloutConfig& config = {});

/// Results of a fused paired batch: `a[k]` and `b[k]` are the rollouts of
/// job k under the respective controller.
struct PairedRolloutResults {
  std::vector<RolloutResult> a;
  std::vector<RolloutResult> b;
};

/// Runs the 2N rollouts of a paired comparison as ONE job stream instead of
/// two N-batches, so a small grid still saturates the pool.  Job k is
/// simulated once under `a` and once under `b`, each from a fresh
/// Rng(jobs[k].seed), so every result is bitwise identical to two separate
/// batch_rollout calls with the same jobs.
[[nodiscard]] PairedRolloutResults batch_rollout_paired(
    const sys::System& system, const ctrl::Controller& a,
    const ctrl::Controller& b, const std::vector<RolloutJob>& jobs,
    const RolloutConfig& config = {});

/// The Monte-Carlo evaluation grid (core/metrics.h): `num_initial_states`
/// initial states sampled from stream derive_seed(seed, 1), trajectory k
/// simulated under stream derive_seed(seed, 1000 + k).  This is the exact
/// seeding scheme the serial evaluator has always used, so controllers keep
/// being compared on the identical state/disturbance sample.
[[nodiscard]] std::vector<RolloutJob> make_eval_jobs(
    const sys::System& system, int num_initial_states, std::uint64_t seed,
    const attack::PerturbationModel* perturbation = nullptr);

}  // namespace cocktail::core
