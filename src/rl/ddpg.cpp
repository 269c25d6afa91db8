#include "rl/ddpg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rl/noise.h"
#include "util/thread_pool.h"

namespace cocktail::rl {
namespace {

/// Chunk grain of the per-sample gradient reduction inside one minibatch
/// update (the critic pass with its target values, and the actor dQ/da
/// pass).  Part of the fixed reduction tree: changing it changes low-order
/// bits.
constexpr std::size_t kGradGrain = 8;

/// One thread's row tiles and tapes for an update chunk.  thread_local in
/// the chunk bodies: it grows to one chunk of the widest networks and is
/// then reused, so the chunk bodies allocate nothing.
struct ChunkScratch {
  std::vector<double> states;     ///< state rows (s or s').
  std::vector<double> actions;    ///< action rows.
  std::vector<double> critic_in;  ///< critic input rows [s | a].
  std::vector<double> values;     ///< one value per row.
  std::vector<double> dy;         ///< cotangent rows.
  std::vector<double> dx;         ///< critic input-gradient rows.
  nn::Mlp::Tape tape, critic_tape;
};

/// Row k of `out` = [row k of a | row k of b], for k < m.
void concat_rows(const double* a, std::size_t a_width, const double* b,
                 std::size_t b_width, std::size_t m, double* out) {
  for (std::size_t k = 0; k < m; ++k) {
    out = std::copy_n(a + k * a_width, a_width, out);
    out = std::copy_n(b + k * b_width, b_width, out);
  }
}

}  // namespace

double DdpgStats::final_return_mean(std::size_t window) const {
  if (episode_returns.empty()) return 0.0;
  // window == 0 would divide by zero below; the smallest meaningful window
  // is the last episode alone.
  const std::size_t n =
      std::min(std::max<std::size_t>(window, 1), episode_returns.size());
  double sum = 0.0;
  for (std::size_t i = episode_returns.size() - n; i < episode_returns.size();
       ++i)
    sum += episode_returns[i];
  return sum / static_cast<double>(n);
}

Ddpg::Ddpg(DdpgConfig config) : config_(std::move(config)) {}

void Ddpg::build_networks(std::size_t state_dim, std::size_t action_dim) {
  actor_ = nn::Mlp::make(state_dim, config_.actor_hidden, action_dim,
                         nn::Activation::kRelu, nn::Activation::kTanh,
                         util::derive_seed(config_.seed, 101));
  critic_ = nn::Mlp::make(state_dim + action_dim, config_.critic_hidden, 1,
                          nn::Activation::kRelu, nn::Activation::kIdentity,
                          util::derive_seed(config_.seed, 202));
  target_actor_ = actor_;
  target_critic_ = critic_;
}

void Ddpg::polyak_update(nn::Mlp& target, const nn::Mlp& online,
                         double polyak) {
  auto& t_layers = target.layers();
  const auto& o_layers = online.layers();
  for (std::size_t l = 0; l < t_layers.size(); ++l) {
    auto& tw = t_layers[l].w.data();
    const auto& ow = o_layers[l].w.data();
    for (std::size_t i = 0; i < tw.size(); ++i)
      tw[i] = polyak * tw[i] + (1.0 - polyak) * ow[i];
    auto& tb = t_layers[l].b;
    const auto& ob = o_layers[l].b;
    for (std::size_t i = 0; i < tb.size(); ++i)
      tb[i] = polyak * tb[i] + (1.0 - polyak) * ob[i];
  }
}

void Ddpg::initialize(Env& env) {
  if (config_.batch_size == 0)
    throw std::invalid_argument("Ddpg: batch_size must be positive");
  rng_ = std::make_unique<util::Rng>(config_.seed);
  build_networks(env.state_dim(), env.action_dim());
  actor_opt_ = std::make_unique<nn::Adam>(config_.actor_lr);
  critic_opt_ = std::make_unique<nn::Adam>(config_.critic_lr);
  critic_reducer_ = std::make_unique<nn::ChunkedGradReducer<nn::Gradients>>(
      config_.batch_size, kGradGrain, [&] { return critic_.zero_gradients(); });
  actor_reducer_ = std::make_unique<nn::ChunkedGradReducer<nn::Gradients>>(
      config_.batch_size, kGradGrain, [&] { return actor_.zero_gradients(); });
  buffer_ = std::make_unique<ReplayBuffer>(
      config_.replay_capacity, env.state_dim(), env.action_dim());
  noise_ = std::make_unique<OuNoise>(env.action_dim(), config_.ou_theta,
                                     config_.ou_sigma);
  total_steps_ = 0;
  sigma_ = config_.ou_sigma;
  // One draw seeds every warmup episode slot stream (the split mirrors
  // batch_rollout's per-job seeds).
  warmup_seed_ = rng_->next();
  warmup_slot_next_ = 0;
  initialized_ = true;
}

DdpgStats Ddpg::run_episodes(Env& env, int episodes) {
  if (!initialized_)
    throw std::logic_error("Ddpg::run_episodes: call initialize() first");
  DdpgStats stats;
  int remaining = episodes;

  // Phase 1 — random-action warmup: whole episodes, slot k on its own
  // stream derive_seed(warmup_seed_, k), no updates.  May span several
  // run_episodes calls; the slot cursor carries over.
  for (; remaining > 0 && total_steps_ < config_.warmup_steps; --remaining) {
    util::Rng rng(util::derive_seed(warmup_seed_, warmup_slot_next_++));
    la::Vec s = env.reset(rng);
    double episode_return = 0.0;
    for (int t = 0; t < env.max_episode_steps(); ++t) {
      la::Vec a = rng.uniform_vec(env.action_dim(), -1.0, 1.0);
      const StepResult result = env.step(a, rng);
      episode_return += result.reward;
      buffer_->add({std::move(s), std::move(a), result.reward,
                    result.next_state, result.terminal});
      ++total_steps_;
      if (result.terminal) break;
      s = result.next_state;
    }
    sigma_ *= config_.noise_decay;
    stats.episode_returns.push_back(episode_return);
  }

  // Phase 2 — learned episodes: every step samples from the actor the
  // previous step just updated.
  for (; remaining > 0; --remaining) {
    la::Vec s = env.reset(*rng_);
    noise_->reset();
    noise_->set_sigma(sigma_);
    double episode_return = 0.0;
    for (int t = 0; t < env.max_episode_steps(); ++t) {
      la::Vec a = actor_.forward(s);
      la::axpy(a, 1.0, noise_->sample(*rng_));
      a = la::clip(a, -1.0, 1.0);
      const StepResult result = env.step(a, *rng_);
      buffer_->add({s, a, result.reward, result.next_state, result.terminal});
      episode_return += result.reward;
      s = result.next_state;
      ++total_steps_;
      if (buffer_->size() >= config_.batch_size) update(*buffer_, *rng_);
      if (result.terminal) break;
    }
    sigma_ *= config_.noise_decay;
    stats.episode_returns.push_back(episode_return);
  }
  return stats;
}

DdpgStats Ddpg::train(Env& env) {
  initialize(env);
  return run_episodes(env, config_.episodes);
}

void Ddpg::update(const ReplayBuffer& buffer, util::Rng& rng) {
  const std::vector<std::size_t> batch =
      buffer.sample(config_.batch_size, rng);
  const double inv_batch = 1.0 / static_cast<double>(batch.size());
  util::ThreadPool* const pool = &util::ThreadPool::shared();
  const std::size_t state_dim = actor_.input_dim();
  const std::size_t action_dim = actor_.output_dim();
  const std::size_t critic_dim = state_dim + action_dim;

  // --- Critic: regress Q(s,a) onto y = r + gamma * Q'(s', mu'(s')). ---
  // Each chunk first computes its rows' targets from the frozen target
  // networks (a terminal row's value is computed and ignored: rows are
  // independent), then runs the regression as one row tile.  Workers read
  // only frozen inputs and write their private gradient buffers and
  // thread_local scratch.
  nn::Gradients& critic_grads = critic_reducer_->reduce(
      pool, batch.size(),
      [&](nn::Gradients& acc, std::size_t begin, std::size_t end) {
        thread_local ChunkScratch scratch;
        const std::size_t m = end - begin;
        double* next = la::grow_to(scratch.states, m * state_dim);
        for (std::size_t k = 0; k < m; ++k)
          std::copy_n(buffer.row(batch[begin + k]) + buffer.next_state_offset(),
                      state_dim, next + k * state_dim);
        double* a_next = la::grow_to(scratch.actions, m * action_dim);
        target_actor_.forward_rows(next, m, a_next);
        double* x = la::grow_to(scratch.critic_in, m * critic_dim);
        concat_rows(next, state_dim, a_next, action_dim, m, x);
        double* targets = la::grow_to(scratch.values, m);
        target_critic_.forward_rows(x, m, targets);
        for (std::size_t k = 0; k < m; ++k) {
          const double* row = buffer.row(batch[begin + k]);
          double target = row[buffer.reward_offset()];
          if (row[buffer.terminal_offset()] == 0.0)
            target += config_.gamma * targets[k];
          targets[k] = target;
        }
        // The critic input [s | a] is the prefix of each replay row.
        for (std::size_t k = 0; k < m; ++k)
          std::copy_n(buffer.row(batch[begin + k]), critic_dim,
                      x + k * critic_dim);
        const double* q = critic_.forward_tile(x, m, scratch.tape);
        double* dl = la::grow_to(scratch.dy, m);
        for (std::size_t k = 0; k < m; ++k)
          dl[k] = inv_batch * 2.0 * (q[k] - targets[k]);
        critic_.backward_tile(scratch.tape, dl, m, nullptr, &acc, nullptr);
      });
  critic_grads.clip_norm(config_.grad_clip);
  critic_opt_->step(critic_, critic_grads);

  // --- Actor: ascend Q(s, mu(s)) through the critic's action input. ---
  // Runs after the critic step (sequential dependency preserved); within
  // the pass every chunk reads the same frozen critic.
  nn::Gradients& actor_grads = actor_reducer_->reduce(
      pool, batch.size(),
      [&](nn::Gradients& acc, std::size_t begin, std::size_t end) {
        thread_local ChunkScratch scratch;
        const std::size_t m = end - begin;
        double* s = la::grow_to(scratch.states, m * state_dim);
        for (std::size_t k = 0; k < m; ++k)
          std::copy_n(buffer.row(batch[begin + k]), state_dim,
                      s + k * state_dim);
        const double* a = actor_.forward_tile(s, m, scratch.tape);
        double* x = la::grow_to(scratch.critic_in, m * critic_dim);
        concat_rows(s, state_dim, a, action_dim, m, x);
        // dQ/d[s;a] via the critic's input gradient (no parameter
        // gradients); keep the action slice.
        critic_.forward_tile(x, m, scratch.critic_tape);
        double* ones = la::grow_to(scratch.values, m);
        std::fill_n(ones, m, 1.0);
        double* dq_dx = la::grow_to(scratch.dx, m * critic_dim);
        critic_.backward_tile(scratch.critic_tape, ones, m, nullptr, nullptr,
                              dq_dx);
        // Gradient *descent* on -Q: dl/da = -dQ/da, averaged over the batch.
        double* dl_da = la::grow_to(scratch.dy, m * action_dim);
        for (std::size_t k = 0; k < m; ++k)
          for (std::size_t j = 0; j < action_dim; ++j)
            dl_da[k * action_dim + j] =
                dq_dx[k * critic_dim + state_dim + j] * -inv_batch;
        actor_.backward_tile(scratch.tape, dl_da, m, nullptr, &acc, nullptr);
      });
  actor_grads.clip_norm(config_.grad_clip);
  actor_opt_->step(actor_, actor_grads);

  polyak_update(target_actor_, actor_, config_.polyak);
  polyak_update(target_critic_, critic_, config_.polyak);
}

}  // namespace cocktail::rl
