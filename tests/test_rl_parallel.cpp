// Bitwise regression tests for the parallel PPO/DDPG training paths: the
// per-sample gradient work inside one minibatch update fans across the
// shared pool with per-chunk buffers merged on the fixed chunked-reduce
// tree, so a trained network must be bitwise identical to the serial run
// on a pool worker (serial_run.h) for any pool width (the same contract
// test_core_distill pins for the distiller), including end to end through
// adaptive mixing + distillation (the golden pipeline check).
// Experience collection is serial: PPO's collect() and DDPG's warmup run
// episode slot k on its own derived RNG stream, and a warmup split across
// run_episodes calls must replay the same slots.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "control/polynomial_controller.h"
#include "core/distiller.h"
#include "core/mixing.h"
#include "mlp_reference.h"
#include "nn/grad_reduce.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "rl/ddpg.h"
#include "rl/env.h"
#include "rl/ppo.h"
#include "rl_test_common.h"
#include "serial_run.h"
#include "sys/vanderpol.h"
#include "util/thread_pool.h"

namespace cocktail {
namespace {

using la::Vec;
using testutil::DiscretePointMassEnv;
using testutil::PointMassEnv;
using testutil::expect_same_net;
using testutil::pool_width;
using testutil::run_serially;

rl::PpoConfig tiny_ppo(std::uint64_t seed) {
  rl::PpoConfig config;
  config.policy_hidden = {12, 12};
  config.value_hidden = {16, 16};
  config.iterations = 4;  // enough updates for any divergence to compound.
  config.steps_per_iteration = 200;
  config.update_epochs = 3;
  // 200 steps = 4 x 44 + 24, and 44 = 5 x 8 + 4: every full minibatch
  // ends in a partial chunk of the grain-8 reduction tree.
  config.minibatch = 44;
  config.entropy_coef = 0.01;
  config.seed = seed;
  return config;
}

/// Trains a fresh `Trainer` on a fresh `Env` and returns it with its stats.
template <class Trainer, class Env, class Config>
auto train_fresh(const Config& config) {
  Env env;
  Trainer trainer(config);
  auto stats = trainer.train(env);
  return std::pair{std::move(trainer), std::move(stats)};
}

TEST(PpoGaussianParallel, BitwiseIdenticalForAnyWorkerCount) {
  const rl::PpoConfig config = tiny_ppo(21);
  const auto train = [&] {
    return train_fresh<rl::PpoGaussian, PointMassEnv>(config);
  };
  const auto [reference, ref_stats] = run_serially(train);
  const auto [parallel, stats] = train();
  const int workers = pool_width();
  expect_same_net(parallel.policy().mean_net(), reference.policy().mean_net(),
                  workers);
  expect_same_net(parallel.value_net(), reference.value_net(), workers);
  EXPECT_EQ(parallel.policy().log_std(), reference.policy().log_std())
      << workers << " workers";
  EXPECT_EQ(stats.iteration_mean_returns, ref_stats.iteration_mean_returns)
      << workers << " workers";
  EXPECT_EQ(stats.iteration_kls, ref_stats.iteration_kls)
      << workers << " workers";
}

TEST(PpoGaussianParallel, ClipVariantBitwiseIdenticalToo) {
  // The clipped surrogate zeroes some per-sample coefficients — the chunk
  // tree must not care which.
  rl::PpoConfig config = tiny_ppo(22);
  config.use_clip = true;
  const auto train = [&] {
    return train_fresh<rl::PpoGaussian, PointMassEnv>(config);
  };
  const auto reference = run_serially(train).first;
  const auto parallel = train().first;
  expect_same_net(parallel.policy().mean_net(), reference.policy().mean_net(),
                  pool_width());
}

TEST(PpoCategoricalParallel, BitwiseIdenticalForAnyWorkerCount) {
  const rl::PpoConfig config = tiny_ppo(23);
  const auto train = [&] {
    return train_fresh<rl::PpoCategorical, DiscretePointMassEnv>(config);
  };
  const auto [reference, ref_stats] = run_serially(train);
  const auto [parallel, stats] = train();
  const int workers = pool_width();
  expect_same_net(parallel.policy().logits_net(),
                  reference.policy().logits_net(), workers);
  EXPECT_EQ(stats.iteration_mean_returns, ref_stats.iteration_mean_returns)
      << workers << " workers";
  EXPECT_EQ(stats.iteration_kls, ref_stats.iteration_kls)
      << workers << " workers";
}

TEST(DdpgParallel, BitwiseIdenticalForAnyWorkerCount) {
  rl::DdpgConfig config;
  config.actor_hidden = {12, 12};
  config.critic_hidden = {16, 16};
  config.episodes = 12;
  config.warmup_steps = 120;
  config.batch_size = 52;  // 6 x 8 + 4: a partial last chunk.
  config.seed = 24;
  const auto train = [&] {
    return train_fresh<rl::Ddpg, PointMassEnv>(config);
  };
  const auto [reference, ref_stats] = run_serially(train);
  const auto [parallel, stats] = train();
  const int workers = pool_width();
  expect_same_net(parallel.actor(), reference.actor(), workers);
  expect_same_net(parallel.critic(), reference.critic(), workers);
  EXPECT_EQ(stats.episode_returns, ref_stats.episode_returns)
      << workers << " workers";
}

TEST(DdpgWarmup, SplitAcrossRunCallsMatchesMonolithic) {
  // The warmup slot cursor persists across run_episodes calls: consuming
  // the warmup in two chunks (the checkpointed-trainer pattern) must replay
  // the identical slot streams as one call.
  rl::DdpgConfig config;
  config.actor_hidden = {10};
  config.critic_hidden = {12};
  config.episodes = 10;
  config.warmup_steps = 150;
  config.batch_size = 36;  // 4 x 8 + 4: a partial last chunk.
  config.seed = 34;
  PointMassEnv env_a, env_b;
  rl::Ddpg mono(config), chunked(config);
  (void)mono.train(env_a);
  chunked.initialize(env_b);
  (void)chunked.run_episodes(env_b, 3);  // splits mid-warmup.
  (void)chunked.run_episodes(env_b, 7);
  expect_same_net(mono.actor(), chunked.actor(), 0);
  expect_same_net(mono.critic(), chunked.critic(), 0);
}

TEST(PipelineGolden, MixingPlusDistillationIdenticalAcrossWorkerCounts) {
  // End-to-end golden check: adaptive mixing (PPO on the real MixingEnv)
  // followed by robust distillation must produce bitwise identical
  // distilled students serially, on the shared pool, and for repeated
  // same-seed runs.
  const auto make_experts = [] {
    la::Matrix stab(1, 2);
    stab(0, 0) = 3.0;
    stab(0, 1) = 4.0;
    return std::vector<ctrl::ControllerPtr>{
        std::make_shared<ctrl::PolynomialController>(
            ctrl::PolynomialController::linear_feedback(stab, "stab")),
        std::make_shared<ctrl::ZeroController>(2, 1)};
  };
  core::MixingConfig mixing;
  mixing.ppo.policy_hidden = {8, 8};
  mixing.ppo.value_hidden = {8, 8};
  mixing.ppo.iterations = 2;
  mixing.ppo.steps_per_iteration = 160;
  mixing.ppo.update_epochs = 2;
  mixing.ppo.minibatch = 36;  // 4 x 8 + 4: a partial last chunk.
  mixing.ppo.seed = 35;
  mixing.snapshot.checkpoints = 1;
  mixing.snapshot.eval_states = 16;

  core::DistillConfig distill;
  distill.teacher_rollouts = 2;
  distill.uniform_samples = 120;
  distill.student_hidden = {8};
  distill.epochs = 3;
  distill.seed = 36;

  const auto run_once = [&] {
    auto system = std::make_shared<sys::VanDerPol>();
    const auto mixed =
        core::train_adaptive_mixing(system, make_experts(), mixing);
    const auto student =
        core::distill(*system, *mixed.controller, distill, "golden");
    return std::pair{mixed.controller, student.student};
  };

  const auto [teacher_1, student_1] = run_serially(run_once);
  const auto [teacher_2, student_2] = run_once();
  const auto [teacher_2b, student_2b] = run_once();  // same-seed repeat.
  const int workers = pool_width();
  expect_same_net(teacher_1->weight_net(), teacher_2->weight_net(), workers);
  expect_same_net(student_1->net(), student_2->net(), workers);
  expect_same_net(student_2->net(), student_2b->net(), workers);
}

TEST(ChunkedGradReducer, MergeMatchesSerialChunkTree) {
  // The per-chunk nn::Gradients buffers must merge to exactly the same
  // bits on a pool as on the serial path: same chunking, same in-chunk
  // order, same chunk-merge order.
  const nn::Mlp net = nn::Mlp::make(3, {8, 8}, 2, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 5);
  util::Rng rng(17);
  const std::size_t n = 37;  // ragged: 37 = 4*8 + 5 under grain 8.
  std::vector<la::Vec> inputs(n), targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs[i] = rng.uniform_vec(3, -1.0, 1.0);
    targets[i] = rng.uniform_vec(2, -1.0, 1.0);
  }
  const auto body = [&](nn::Gradients& acc, std::size_t begin,
                        std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ref::Workspace ws;
      const la::Vec y = ref::forward(net, inputs[i], ws);
      (void)ref::backward(net, ws, nn::mse_gradient(y, targets[i]), acc);
    }
  };
  nn::ChunkedGradReducer<nn::Gradients> serial_reducer(
      n, 8, [&] { return net.zero_gradients(); });
  const nn::Gradients serial = serial_reducer.reduce(nullptr, n, body);

  util::ThreadPool pool(4);
  nn::ChunkedGradReducer<nn::Gradients> parallel_reducer(
      n, 8, [&] { return net.zero_gradients(); });
  // Run twice: buffer reuse across reduce() calls must not leak state.
  (void)parallel_reducer.reduce(&pool, n, body);
  const nn::Gradients parallel = parallel_reducer.reduce(&pool, n, body);

  ASSERT_EQ(serial.w.size(), parallel.w.size());
  for (std::size_t l = 0; l < serial.w.size(); ++l) {
    EXPECT_EQ(serial.w[l].data(), parallel.w[l].data()) << "layer " << l;
    EXPECT_EQ(serial.b[l], parallel.b[l]) << "layer " << l;
  }
  // A count needing more chunks than the construction-time capacity is a
  // caller bug (the throw fires before any body runs).
  EXPECT_THROW((void)parallel_reducer.reduce(&pool, 48, body),
               std::invalid_argument);
}

TEST(ChunkedGradReducer, PartialCountUsesPrefixOfChunks) {
  const nn::Mlp net = nn::Mlp::make(2, {6}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 9);
  const auto body = [&](nn::Gradients& acc, std::size_t begin,
                        std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ref::Workspace ws;
      const la::Vec y =
          ref::forward(net, {0.1 * static_cast<double>(i), -0.2}, ws);
      (void)ref::backward(net, ws, nn::mse_gradient(y, {0.5}), acc);
    }
  };
  nn::ChunkedGradReducer<nn::Gradients> reducer(
      64, 8, [&] { return net.zero_gradients(); });
  // A full-batch reduce followed by a short ragged one (the last minibatch
  // of an epoch) must equal a fresh reducer's result for the short batch.
  (void)reducer.reduce(nullptr, 64, body);
  const nn::Gradients reused = reducer.reduce(nullptr, 11, body);
  nn::ChunkedGradReducer<nn::Gradients> fresh(
      64, 8, [&] { return net.zero_gradients(); });
  const nn::Gradients expected = fresh.reduce(nullptr, 11, body);
  for (std::size_t l = 0; l < expected.w.size(); ++l) {
    EXPECT_EQ(expected.w[l].data(), reused.w[l].data()) << "layer " << l;
    EXPECT_EQ(expected.b[l], reused.b[l]) << "layer " << l;
  }
}

}  // namespace
}  // namespace cocktail
