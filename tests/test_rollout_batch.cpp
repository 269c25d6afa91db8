// Tests for the batched rollout engine: results must be bitwise identical
// to serial rollouts for fixed per-job seeds, regardless of the shared
// pool's width (serial_run.h), and make_eval_jobs must reproduce the
// evaluator's historical seeding.
#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "attack/fgsm.h"
#include "attack/perturbation.h"
#include "control/nn_controller.h"
#include "core/metrics.h"
#include "core/rollout.h"
#include "nn/mlp.h"
#include "serial_run.h"
#include "sys/vanderpol.h"
#include "util/rng.h"

namespace cocktail {
namespace {

using testutil::pool_width;
using testutil::run_serially;

ctrl::NnController make_controller(std::uint64_t seed = 7) {
  nn::Mlp net = nn::Mlp::make(2, {16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, seed);
  return ctrl::NnController(std::move(net), {1.0}, "k");
}

std::vector<core::RolloutJob> make_jobs(
    const sys::System& system, int count,
    const attack::PerturbationModel* perturbation) {
  std::vector<core::RolloutJob> jobs;
  util::Rng rng(99);
  for (int k = 0; k < count; ++k) {
    core::RolloutJob job;
    job.initial_state = system.sample_initial_state(rng);
    job.seed = util::derive_seed(4242, static_cast<std::uint64_t>(k));
    job.perturbation = perturbation;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_bitwise_equal(const core::RolloutResult& a,
                          const core::RolloutResult& b, std::size_t index) {
  EXPECT_EQ(a.safe, b.safe) << "job " << index;
  EXPECT_EQ(a.steps_taken, b.steps_taken) << "job " << index;
  // Bitwise: no tolerance anywhere.
  EXPECT_EQ(a.energy, b.energy) << "job " << index;
  EXPECT_EQ(a.final_state, b.final_state) << "job " << index;
  EXPECT_EQ(a.states, b.states) << "job " << index;
  EXPECT_EQ(a.controls, b.controls) << "job " << index;
}

TEST(BatchRollout, MatchesSerialRolloutBitwise) {
  const sys::VanDerPol system;
  const auto controller = make_controller();
  const auto jobs = make_jobs(system, 40, nullptr);

  core::RolloutConfig config;
  config.record_trajectory = true;
  const auto batched = core::batch_rollout(system, controller, jobs, config);

  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    util::Rng rng(jobs[i].seed);
    const auto serial =
        core::rollout(system, controller, jobs[i].initial_state,
                      jobs[i].perturbation, rng, config);
    expect_bitwise_equal(batched[i], serial, i);
  }
}

TEST(BatchRollout, WorkerCountNeverChangesResults) {
  const sys::VanDerPol system;
  const auto controller = make_controller();
  const attack::UniformNoise noise({0.2, 0.2});
  const auto jobs = make_jobs(system, 60, &noise);

  core::RolloutConfig config;
  config.record_trajectory = true;
  const auto batch = [&] {
    return core::batch_rollout(system, controller, jobs, config);
  };
  const auto reference = run_serially(batch);
  const auto batched = batch();
  ASSERT_EQ(batched.size(), reference.size()) << pool_width() << " workers";
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_bitwise_equal(batched[i], reference[i], i);
}

TEST(BatchRollout, GradientAttackJobsAreDeterministicAcrossWorkers) {
  const sys::VanDerPol system;
  const auto controller = make_controller();
  const attack::FgsmAttack fgsm({0.25, 0.25});
  const auto jobs = make_jobs(system, 30, &fgsm);

  const auto batch = [&] {
    return core::batch_rollout(system, controller, jobs);
  };
  const auto reference = run_serially(batch);
  const auto batched = batch();
  ASSERT_EQ(batched.size(), reference.size()) << pool_width() << " workers";
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_bitwise_equal(batched[i], reference[i], i);
}

TEST(BatchRollout, EmptyBatchReturnsEmpty) {
  const sys::VanDerPol system;
  const auto controller = make_controller();
  const auto results = core::batch_rollout(system, controller, {}, {});
  EXPECT_TRUE(results.empty());
}

TEST(BatchRollout, DistinctSeedsDrawDistinctDisturbanceStreams) {
  const sys::VanDerPol system;
  const auto controller = make_controller();
  std::vector<core::RolloutJob> jobs(2);
  jobs[0].initial_state = {0.5, 0.5};
  jobs[0].seed = 1;
  jobs[1].initial_state = {0.5, 0.5};
  jobs[1].seed = 2;
  core::RolloutConfig config;
  config.record_trajectory = true;
  const auto results = core::batch_rollout(system, controller, jobs, config);
  ASSERT_EQ(results.size(), 2u);
  // Same start, different ω streams: the trajectories must diverge.
  EXPECT_NE(results[0].states, results[1].states);
}

TEST(BatchRolloutPaired, FusedBatchMatchesTwoBatchesBitwise) {
  // The fused 2N-job stream must reproduce the two-batch implementation
  // exactly: per-job streams re-seed from the job, so fusing cannot change
  // any trajectory.
  const sys::VanDerPol system;
  const auto a = make_controller(7);
  const auto b = make_controller(8);
  const attack::UniformNoise noise({0.15, 0.15});
  const auto jobs = make_jobs(system, 50, &noise);

  core::RolloutConfig config;
  config.record_trajectory = true;
  const auto two_a = core::batch_rollout(system, a, jobs, config);
  const auto two_b = core::batch_rollout(system, b, jobs, config);
  const auto fused = core::batch_rollout_paired(system, a, b, jobs, config);

  ASSERT_EQ(fused.a.size(), jobs.size());
  ASSERT_EQ(fused.b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_bitwise_equal(fused.a[i], two_a[i], i);
    expect_bitwise_equal(fused.b[i], two_b[i], i);
  }
}

TEST(BatchRolloutPaired, WorkerCountNeverChangesResults) {
  const sys::VanDerPol system;
  const auto a = make_controller(7);
  const auto b = make_controller(8);
  const auto jobs = make_jobs(system, 30, nullptr);

  const auto batch = [&] {
    return core::batch_rollout_paired(system, a, b, jobs);
  };
  const auto reference = run_serially(batch);
  const auto fused = batch();
  ASSERT_EQ(fused.a.size(), jobs.size()) << pool_width() << " workers";
  ASSERT_EQ(fused.b.size(), jobs.size()) << pool_width() << " workers";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_bitwise_equal(fused.a[i], reference.a[i], i);
    expect_bitwise_equal(fused.b[i], reference.b[i], i);
  }
}

TEST(BatchRolloutPaired, EmptyBatchReturnsEmpty) {
  const sys::VanDerPol system;
  const auto a = make_controller(7);
  const auto b = make_controller(8);
  const auto fused = core::batch_rollout_paired(system, a, b, {}, {});
  EXPECT_TRUE(fused.a.empty());
  EXPECT_TRUE(fused.b.empty());
}

TEST(MakeEvalJobs, ReproducesTheEvaluatorSeedingScheme) {
  const sys::VanDerPol system;
  constexpr std::uint64_t kSeed = 31337;
  const auto jobs = core::make_eval_jobs(system, 25, kSeed, nullptr);
  ASSERT_EQ(jobs.size(), 25u);

  util::Rng init_rng(util::derive_seed(kSeed, 1));
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].initial_state, system.sample_initial_state(init_rng));
    EXPECT_EQ(jobs[k].seed, util::derive_seed(kSeed, 1000 + k));
    EXPECT_EQ(jobs[k].perturbation, nullptr);
  }
}

TEST(Evaluate, MatchesTheHistoricalSerialLoop) {
  // The pre-batching evaluator, reimplemented verbatim: evaluate() must
  // keep producing the identical Monte-Carlo numbers now that it fans the
  // same grid across the pool.
  const sys::VanDerPol system;
  const auto controller = make_controller();
  core::EvalConfig config;
  config.num_initial_states = 50;
  config.seed = 2468;

  util::Rng init_rng(util::derive_seed(config.seed, 1));
  int num_safe = 0;
  double energy_sum = 0.0;
  for (int k = 0; k < config.num_initial_states; ++k) {
    const la::Vec s0 = system.sample_initial_state(init_rng);
    util::Rng traj_rng(util::derive_seed(config.seed, 1000 + k));
    const auto r =
        core::rollout(system, controller, s0, nullptr, traj_rng);
    if (r.safe) {
      ++num_safe;
      energy_sum += r.energy;
    }
  }

  const auto result = core::evaluate(system, controller, config);
  EXPECT_EQ(result.num_total, config.num_initial_states);
  EXPECT_EQ(result.num_safe, num_safe);
  // mean_energy is NaN when nothing was safe (EvalResult contract).
  if (num_safe == 0)
    EXPECT_TRUE(std::isnan(result.mean_energy));
  else
    EXPECT_EQ(result.mean_energy, energy_sum / num_safe);
}

}  // namespace
}  // namespace cocktail
