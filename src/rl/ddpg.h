// Deep Deterministic Policy Gradient (Lillicrap et al. [17]).
//
// Used two ways in the reproduction:
//  * to train the expert controllers κ1/κ2 (the paper obtains its experts
//    "by DDPG with different hyper-parameters"), and
//  * as the alternative mixing learner of Remark 1 (DDPG on the weight MDP).
//
// Each minibatch update runs on util::ThreadPool::shared() as row-tile
// chunks whose gradients merge on the fixed chunked-reduce tree, so
// training is bitwise identical for any pool width.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/grad_reduce.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/env.h"
#include "rl/noise.h"
#include "rl/replay_buffer.h"

namespace cocktail::rl {

struct DdpgConfig {
  std::vector<std::size_t> actor_hidden = {64, 64};
  std::vector<std::size_t> critic_hidden = {64, 64};
  double gamma = 0.99;
  double polyak = 0.995;        ///< target-network averaging factor.
  double actor_lr = 1e-3;
  double critic_lr = 1e-3;
  /// Replay rows per update; must be positive (initialize() throws
  /// std::invalid_argument on 0, which would leave every update empty).
  std::size_t batch_size = 64;
  std::size_t replay_capacity = 100000;
  /// Uniform-random-action transitions before learning: whole episodes,
  /// no updates, slot k on the stream derive_seed(s, k) for one seed s
  /// drawn at initialize().
  std::size_t warmup_steps = 500;
  int episodes = 150;
  double ou_theta = 0.15;
  double ou_sigma = 0.2;
  double noise_decay = 0.995;   ///< per-episode exploration decay.
  double grad_clip = 5.0;
  std::uint64_t seed = 1;
};

struct DdpgStats {
  std::vector<double> episode_returns;
  /// Mean return over the last `window` episodes (0 if none were run).
  /// `window` is clamped to >= 1 — it can never divide by zero.
  [[nodiscard]] double final_return_mean(std::size_t window = 10) const;
};

class Ddpg {
 public:
  explicit Ddpg(DdpgConfig config);

  /// Trains on `env` and returns stats; the actor/critic are then available
  /// through actor()/critic().  Actions sent to the env live in [-1, 1]^dim.
  [[nodiscard]] DdpgStats train(Env& env);

  /// Incremental interface: initialize once, then run episodes in chunks
  /// (callers interleave evaluation / snapshotting between chunks).
  void initialize(Env& env);
  /// Runs `episodes` further episodes; appends to the returned stats.
  [[nodiscard]] DdpgStats run_episodes(Env& env, int episodes);

  [[nodiscard]] const nn::Mlp& actor() const { return actor_; }
  [[nodiscard]] const nn::Mlp& critic() const { return critic_; }

 private:
  void build_networks(std::size_t state_dim, std::size_t action_dim);
  void update(const ReplayBuffer& buffer, util::Rng& rng);
  static void polyak_update(nn::Mlp& target, const nn::Mlp& online,
                            double polyak);

  DdpgConfig config_;
  nn::Mlp actor_, critic_;
  nn::Mlp target_actor_, target_critic_;
  // Persistent training state for the incremental interface.
  std::unique_ptr<nn::Adam> actor_opt_, critic_opt_;
  std::unique_ptr<ReplayBuffer> buffer_;
  std::unique_ptr<OuNoise> noise_;
  std::unique_ptr<util::Rng> rng_;
  // Per-chunk gradient buffers, built once at initialize(): update() runs
  // on every env step, so they are hoisted out of the hot path.
  std::unique_ptr<nn::ChunkedGradReducer<nn::Gradients>> critic_reducer_;
  std::unique_ptr<nn::ChunkedGradReducer<nn::Gradients>> actor_reducer_;
  std::size_t total_steps_ = 0;
  double sigma_ = 0.0;
  // Warmup slot-stream state: seed drawn once at initialize(); the next
  // episode slot persists across run_episodes calls so a warmup split over
  // several calls replays the identical slot sequence.
  std::uint64_t warmup_seed_ = 0;
  std::uint64_t warmup_slot_next_ = 0;
  bool initialized_ = false;
};

}  // namespace cocktail::rl
