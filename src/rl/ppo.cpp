#include "rl/ppo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "nn/grad_reduce.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "rl/episode_shards.h"
#include "util/logging.h"

namespace cocktail::rl {
namespace {

constexpr double kLogStdMin = -4.0;
constexpr double kLogStdMax = 1.0;

/// Chunk grain of the per-sample gradient reduction inside one minibatch
/// update, and of the batch-wide KL mean.  Part of the fixed reduction tree
/// (see util::chunked_reduce): changing either changes low-order bits.
constexpr std::size_t kGradGrain = 8;
constexpr std::size_t kKlGrain = 256;

/// Row map of a chunk's policy cotangents: rows 2k and 2k+1 (the log-prob
/// row, then the KL row, of sample k) share recorded row k, so one policy
/// forward serves both backward rows.
constexpr auto kPairedRows = [] {
  std::array<std::size_t, 2 * kGradGrain> rows{};
  for (std::size_t k = 0; k < rows.size(); ++k) rows[k] = k / 2;
  return rows;
}();

/// One thread's row tiles and tapes for a minibatch chunk.  thread_local in
/// the chunk bodies: it grows to one chunk of the widest networks and is
/// then reused, so no row buffer is allocated per sample.
struct ChunkScratch {
  std::vector<double> x;        ///< state rows.
  std::vector<double> dpolicy;  ///< 2 cotangent rows per sample.
  std::vector<double> dvalue;   ///< value cotangent rows.
  nn::Mlp::Tape policy, value;
};

/// Copies the states of samples perm[first], ..., perm[first + m - 1] into
/// consecutive rows of `x`.
void gather_states(const std::vector<la::Vec>& states,
                   const std::vector<std::size_t>& perm, std::size_t first,
                   std::size_t m, double* x) {
  for (std::size_t k = 0; k < m; ++k) {
    const la::Vec& s = states[perm[first + k]];
    std::copy(s.begin(), s.end(), x + k * s.size());
  }
}

/// Per-chunk accumulator of the Gaussian PPO minibatch: mean-net gradients,
/// log-std gradients, and value-net gradients, merged in fixed chunk order.
struct GaussianMinibatchGrads {
  nn::Gradients policy;
  la::Vec log_std;
  nn::Gradients value;

  void zero() {
    policy.zero();
    std::fill(log_std.begin(), log_std.end(), 0.0);
    value.zero();
  }
  void axpy(double k, const GaussianMinibatchGrads& other) {
    policy.axpy(k, other.policy);
    la::axpy(log_std, k, other.log_std);
    value.axpy(k, other.value);
  }
};

/// Categorical equivalent: logits-net and value-net gradients.
struct CategoricalMinibatchGrads {
  nn::Gradients policy;
  nn::Gradients value;

  void zero() {
    policy.zero();
    value.zero();
  }
  void axpy(double k, const CategoricalMinibatchGrads& other) {
    policy.axpy(k, other.policy);
    value.axpy(k, other.value);
  }
};

void clamp_log_std(la::Vec& log_std) {
  for (auto& v : log_std) v = std::clamp(v, kLogStdMin, kLogStdMax);
}

double mean_episode_return(const std::vector<double>& returns) {
  if (returns.empty()) return 0.0;
  double sum = 0.0;
  for (double r : returns) sum += r;
  return sum / static_cast<double>(returns.size());
}

/// Surrogate coefficient: d/dθ of ratio·Â is ratio·Â·dlogπ.  With clipping
/// enabled the gradient vanishes outside the trust region (standard
/// PPO-clip behaviour).
double surrogate_coef(double ratio, double advantage, const PpoConfig& config) {
  const bool outside =
      (advantage > 0.0 && ratio > 1.0 + config.clip_epsilon) ||
      (advantage < 0.0 && ratio < 1.0 - config.clip_epsilon);
  return config.use_clip && outside ? 0.0 : ratio * advantage;
}

/// Adapts the KL penalty β as in the adaptive-KL PPO variant.
void adapt_beta(double& beta, double observed_kl, double target) {
  if (observed_kl > 1.5 * target) beta = std::min(beta * 2.0, 64.0);
  else if (observed_kl < target / 1.5) beta = std::max(beta * 0.5, 1e-3);
}

// --- sharded on-policy collection ------------------------------------------
//
// The RNG-split recipe mirrors batch_rollout's per-job seeds: one collect
// seed per iteration (a single draw from the trainer RNG, so the trainer
// stream advances identically no matter how collection executes), one
// derived stream per episode *slot*, and fixed slot-order concatenation cut
// at steps_per_iteration.  Which episodes end up in the batch depends only
// on the slot-order cumulative step counts — never on how many env clones
// (num_env_shards) or pool workers ran them — so collection is bitwise
// identical for any shard/worker count, including the serial path.

/// Runs one full episode (to a terminal state or the env time limit) on a
/// private env replica and RNG stream.  `sample` records the policy action
/// and log-prob into the batch and returns the action to execute.
template <class SampleFn>
RolloutBatch run_episode(Env& env, const nn::Mlp& value_net,
                         const SampleFn& sample, util::Rng& rng) {
  RolloutBatch batch;
  la::Vec s = env.reset(rng);
  // Carry V(s) across steps: while the episode continues, next_values[t]
  // and values[t+1] are the same forward on the same state, so the cached
  // value is bitwise identical and halves the value forwards.
  double value_s = value_net.forward(s)[0];
  const int horizon = env.max_episode_steps();
  for (int t = 1;; ++t) {
    const la::Vec executed = sample(batch, s, rng);
    const StepResult result = env.step(executed, rng);
    const bool time_limit = t >= horizon && !result.terminal;
    const double value_next = value_net.forward(result.next_state)[0];
    batch.states.push_back(s);
    batch.rewards.push_back(result.reward);
    batch.values.push_back(value_s);
    batch.next_values.push_back(value_next);
    batch.terminal.push_back(result.terminal);
    batch.truncated.push_back(time_limit);
    if (result.terminal || time_limit) break;
    s = result.next_state;
    value_s = value_next;
  }
  return batch;
}

/// Appends the first `take` samples of `from` to `into` (the fixed
/// slot-order concatenation; the final included episode may be cut at the
/// step budget, exactly like the serial collector always cut its last
/// episode mid-flight).
void append_prefix(RolloutBatch& into, const RolloutBatch& from,
                   std::size_t take) {
  const auto copy_prefix = [take](auto& dst, const auto& src) {
    dst.insert(dst.end(), src.begin(),
               src.begin() + static_cast<std::ptrdiff_t>(take));
  };
  copy_prefix(into.states, from.states);
  if (!from.actions.empty()) copy_prefix(into.actions, from.actions);
  if (!from.discrete_actions.empty())
    copy_prefix(into.discrete_actions, from.discrete_actions);
  copy_prefix(into.rewards, from.rewards);
  copy_prefix(into.values, from.values);
  copy_prefix(into.next_values, from.next_values);
  copy_prefix(into.log_probs, from.log_probs);
  copy_prefix(into.terminal, from.terminal);
  copy_prefix(into.truncated, from.truncated);
}

/// The sharded collector shared by both PPO drivers: episode slots run in
/// waves of `num_env_shards` env clones on `pool` (rl::run_slot_wave), then
/// merge in slot order until the step budget is met.  Surplus episodes of
/// the final wave are discarded; recomputing or skipping them can never
/// change the included prefix.
template <class SampleFn>
RolloutBatch collect_sharded(Env& env, const nn::Mlp& value_net,
                             const PpoConfig& config, util::ThreadPool* pool,
                             std::uint64_t collect_seed,
                             const SampleFn& sample) {
  const auto target =
      static_cast<std::size_t>(std::max(config.steps_per_iteration, 1));
  std::vector<std::unique_ptr<Env>> clones =
      clone_shards(env, config.num_env_shards);

  RolloutBatch batch;
  std::vector<RolloutBatch> wave(clones.size());
  std::uint64_t next_slot = 0;
  while (batch.size() < target) {
    run_slot_wave(clones, pool, collect_seed, next_slot, wave,
                  [&](Env& shard, util::Rng& slot_rng) {
                    return run_episode(shard, value_net, sample, slot_rng);
                  });
    for (auto& episode : wave) {
      if (batch.size() < target)
        append_prefix(batch, episode,
                      std::min(episode.size(), target - batch.size()));
      episode = RolloutBatch{};
    }
    next_slot += static_cast<std::uint64_t>(clones.size());
  }
  return batch;
}

}  // namespace

double PpoStats::final_return_mean(std::size_t window) const {
  if (iteration_mean_returns.empty()) return 0.0;
  // window == 0 would divide by zero below; the smallest meaningful window
  // is the last iteration alone.
  const std::size_t n =
      std::min(std::max<std::size_t>(window, 1), iteration_mean_returns.size());
  double sum = 0.0;
  for (std::size_t i = iteration_mean_returns.size() - n;
       i < iteration_mean_returns.size(); ++i)
    sum += iteration_mean_returns[i];
  return sum / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Continuous (Gaussian) PPO — the adaptive mixing learner.
// ---------------------------------------------------------------------------

PpoGaussian::PpoGaussian(PpoConfig config) : config_(std::move(config)) {}

nn::Mlp PpoGaussian::take_mean_net() {
  return std::move(policy_->mean_net());
}

RolloutBatch PpoGaussian::collect(Env& env, util::Rng& rng) {
  // One trainer-RNG draw per iteration seeds every episode slot stream, so
  // the trainer stream advances identically for any shard count.
  const std::uint64_t collect_seed = rng.next();
  const GaussianPolicy* policy = policy_.get();
  return collect_sharded(
      env, value_net_, config_, workers_->pool(), collect_seed,
      [policy](RolloutBatch& batch, const la::Vec& s, util::Rng& slot_rng) {
        const auto sample = policy->sample(s, slot_rng);
        const la::Vec executed = la::clip(sample.action, -1.0, 1.0);
        batch.actions.push_back(sample.action);
        batch.log_probs.push_back(sample.log_prob);
        return executed;
      });
}

double PpoGaussian::update(const RolloutBatch& batch,
                           const AdvantageResult& adv, util::Rng& rng) {
  // Zero epochs leave the policy untouched: KL(pi_old || pi) is exactly 0
  // and no permutation is drawn, so skipping the passes outright is bitwise
  // identical and keeps collection-only runs (BM_PpoCollect) undiluted.
  if (config_.update_epochs <= 0) return 0.0;
  util::ThreadPool* pool = workers_->pool();
  // Freeze pi_old: means and stds at collection time.  Frozen per-minibatch
  // inputs (mu_old, std_old, adv.advantages, adv.returns) are read-only
  // below, so chunk workers touch only shared immutable state plus their
  // private gradient buffers.
  std::vector<la::Vec> mu_old(batch.size());
  util::chunked_for(pool, batch.size(), kKlGrain, [&](std::size_t i) {
    mu_old[i] = policy_->mean(batch.states[i]);
  });
  const la::Vec std_old = policy_->stddev();

  nn::Adam* policy_opt = policy_opt_.get();
  nn::Adam* value_opt = value_opt_.get();
  nn::AdamVec* log_std_opt = log_std_opt_.get();

  // One reducer per update(), reused by every minibatch of every epoch
  // below (update_epochs * batch/minibatch reduces amortize the buffer
  // allocation); update() itself runs once per training iteration.
  nn::ChunkedGradReducer<GaussianMinibatchGrads> reducer(
      std::min(config_.minibatch, batch.size()), kGradGrain, [&] {
        return GaussianMinibatchGrads{policy_->mean_net().zero_gradients(),
                                      la::zeros(policy_->log_std().size()),
                                      value_net_.zero_gradients()};
      });

  for (int epoch = 0; epoch < config_.update_epochs; ++epoch) {
    const auto perm = rng.permutation(batch.size());
    for (std::size_t start = 0; start < perm.size();
         start += config_.minibatch) {
      const std::size_t end = std::min(start + config_.minibatch, perm.size());
      const double inv = 1.0 / static_cast<double>(end - start);
      // The per-sample surrogate/KL/entropy/value gradients have no
      // sequential dependency within the minibatch, so its chunks fan across
      // the pool on the fixed chunked-reduce tree (bitwise identical for any
      // worker count).  A chunk is one row tile: one policy and one value
      // forward, then each sample's log-prob and KL cotangent rows
      // backpropagate together, in sample order.
      GaussianMinibatchGrads& grads = reducer.reduce(
          pool, end - start,
          [&](GaussianMinibatchGrads& acc, std::size_t begin,
              std::size_t stop) {
            thread_local ChunkScratch scratch;
            const std::size_t m = stop - begin;
            const nn::Mlp& mean_net = policy_->mean_net();
            const std::size_t action_dim = mean_net.output_dim();
            double* x = la::grow_to(scratch.x, m * mean_net.input_dim());
            gather_states(batch.states, perm, start + begin, m, x);
            const double* mu = mean_net.forward_tile(x, m, scratch.policy);
            const double* v = value_net_.forward_tile(x, m, scratch.value);
            double* dmu = la::grow_to(scratch.dpolicy, 2 * m * action_dim);
            double* dv = la::grow_to(scratch.dvalue, m);
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t i = perm[start + begin + k];
              const double* mu_k = mu + k * action_dim;
              const la::Vec& a = batch.actions[i];
              const double ratio = std::exp(
                  policy_->log_prob_of_mean(mu_k, a) - batch.log_probs[i]);
              const double coef =
                  surrogate_coef(ratio, adv.advantages[i], config_);
              // acc.log_std takes each sample's log-prob, KL, then entropy
              // term, in sample order.
              policy_->log_prob_cotangent(mu_k, a, coef * inv,
                                          dmu + 2 * k * action_dim,
                                          acc.log_std);
              policy_->kl_cotangent(mu_k, mu_old[i], std_old,
                                    config_.kl_penalty_beta * inv,
                                    dmu + (2 * k + 1) * action_dim,
                                    acc.log_std);
              if (config_.entropy_coef > 0.0)
                policy_->accumulate_entropy_gradient(
                    config_.entropy_coef * inv, acc.log_std);
              // Value regression toward the GAE return.
              dv[k] = inv * 2.0 * (v[k] - adv.returns[i]);
            }
            mean_net.backward_tile(scratch.policy, dmu, 2 * m,
                                   kPairedRows.data(), &acc.policy, nullptr);
            value_net_.backward_tile(scratch.value, dv, m, nullptr,
                                     &acc.value, nullptr);
          });
      grads.policy.clip_norm(config_.grad_clip);
      grads.value.clip_norm(config_.grad_clip);
      policy_opt->step(policy_->mean_net(), grads.policy);
      log_std_opt->step(policy_->log_std(), grads.log_std);
      clamp_log_std(policy_->log_std());
      value_opt->step(value_net_, grads.value);
    }
  }
  // Mean KL over the batch after the updates (for β adaptation); the same
  // fixed-order reduction keeps the sum identical for any worker count.
  double observed_kl = util::chunked_reduce(
      pool, batch.size(), kKlGrain, [] { return 0.0; },
      [&](double& acc, std::size_t i) {
        acc += policy_->kl_from(mu_old[i], std_old, batch.states[i]);
      },
      [](double& into, const double& from) { into += from; });
  observed_kl /= static_cast<double>(batch.size());
  adapt_beta(config_.kl_penalty_beta, observed_kl, config_.kl_target);
  return observed_kl;
}

void PpoGaussian::initialize(Env& env) {
  if (config_.minibatch == 0)
    throw std::invalid_argument("PpoGaussian: minibatch must be positive");
  rng_ = std::make_unique<util::Rng>(config_.seed);
  policy_ = std::make_unique<GaussianPolicy>(
      env.state_dim(), config_.policy_hidden, env.action_dim(),
      config_.initial_std, util::derive_seed(config_.seed, 301));
  value_net_ = nn::Mlp::make(env.state_dim(), config_.value_hidden, 1,
                             nn::Activation::kTanh, nn::Activation::kIdentity,
                             util::derive_seed(config_.seed, 302));
  policy_opt_ = std::make_unique<nn::Adam>(config_.policy_lr);
  value_opt_ = std::make_unique<nn::Adam>(config_.value_lr);
  log_std_opt_ = std::make_unique<nn::AdamVec>(config_.policy_lr);
  workers_ = std::make_unique<util::WorkerScope>(config_.num_workers);
  iterations_done_ = 0;
}

PpoStats PpoGaussian::run_iterations(Env& env, int iterations) {
  if (!policy_)
    throw std::logic_error("PpoGaussian::run_iterations: not initialized");
  PpoStats stats;
  for (int iter = 0; iter < iterations; ++iter) {
    const RolloutBatch batch = collect(env, *rng_);
    const AdvantageResult adv =
        compute_gae(batch, config_.gamma, config_.gae_lambda);
    const double kl = update(batch, adv, *rng_);
    // Episode returns within the batch (split at boundaries).
    std::vector<double> returns;
    double acc = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acc += batch.rewards[i];
      if (batch.terminal[i] || batch.truncated[i]) {
        returns.push_back(acc);
        acc = 0.0;
      }
    }
    const double mean_ret = mean_episode_return(returns);
    stats.iteration_mean_returns.push_back(mean_ret);
    stats.iteration_kls.push_back(kl);
    if (progress_) progress_(iterations_done_, mean_ret);
    ++iterations_done_;
  }
  return stats;
}

PpoStats PpoGaussian::train(Env& env) {
  initialize(env);
  return run_iterations(env, config_.iterations);
}

// ---------------------------------------------------------------------------
// Categorical PPO — the switching baseline AS.
// ---------------------------------------------------------------------------

PpoCategorical::PpoCategorical(PpoConfig config) : config_(std::move(config)) {}

nn::Mlp PpoCategorical::take_logits_net() {
  return std::move(policy_->logits_net());
}

RolloutBatch PpoCategorical::collect(Env& env, util::Rng& rng) {
  // Same per-iteration seed split as PpoGaussian::collect.
  const std::uint64_t collect_seed = rng.next();
  const CategoricalPolicy* policy = policy_.get();
  return collect_sharded(
      env, value_net_, config_, workers_->pool(), collect_seed,
      [policy](RolloutBatch& batch, const la::Vec& s, util::Rng& slot_rng) {
        const auto sample = policy->sample(s, slot_rng);
        batch.discrete_actions.push_back(sample.action);
        batch.log_probs.push_back(sample.log_prob);
        return la::Vec{static_cast<double>(sample.action)};
      });
}

double PpoCategorical::update(const RolloutBatch& batch,
                              const AdvantageResult& adv, util::Rng& rng) {
  // Same no-op shortcut as PpoGaussian::update (bitwise identical).
  if (config_.update_epochs <= 0) return 0.0;
  util::ThreadPool* pool = workers_->pool();
  // Frozen pi_old probabilities: read-only for the chunk workers below.
  std::vector<la::Vec> probs_old(batch.size());
  util::chunked_for(pool, batch.size(), kKlGrain, [&](std::size_t i) {
    probs_old[i] = policy_->probabilities(batch.states[i]);
  });

  nn::ChunkedGradReducer<CategoricalMinibatchGrads> reducer(
      std::min(config_.minibatch, batch.size()), kGradGrain, [&] {
        return CategoricalMinibatchGrads{policy_->logits_net().zero_gradients(),
                                         value_net_.zero_gradients()};
      });

  for (int epoch = 0; epoch < config_.update_epochs; ++epoch) {
    const auto perm = rng.permutation(batch.size());
    for (std::size_t start = 0; start < perm.size();
         start += config_.minibatch) {
      const std::size_t end = std::min(start + config_.minibatch, perm.size());
      const double inv = 1.0 / static_cast<double>(end - start);
      // Same row-tile chunks as PpoGaussian::update.
      CategoricalMinibatchGrads& grads = reducer.reduce(
          pool, end - start,
          [&](CategoricalMinibatchGrads& acc, std::size_t begin,
              std::size_t stop) {
            thread_local ChunkScratch scratch;
            const std::size_t m = stop - begin;
            const nn::Mlp& logits_net = policy_->logits_net();
            const std::size_t actions = logits_net.output_dim();
            double* x = la::grow_to(scratch.x, m * logits_net.input_dim());
            gather_states(batch.states, perm, start + begin, m, x);
            const double* logits =
                logits_net.forward_tile(x, m, scratch.policy);
            const double* v = value_net_.forward_tile(x, m, scratch.value);
            double* dlogits = la::grow_to(scratch.dpolicy, 2 * m * actions);
            double* dv = la::grow_to(scratch.dvalue, m);
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t i = perm[start + begin + k];
              const std::size_t a = batch.discrete_actions[i];
              const la::Vec p = softmax(logits + k * actions, actions);
              const double ratio =
                  std::exp(CategoricalPolicy::log_prob_of(p, a) -
                           batch.log_probs[i]);
              const double coef =
                  surrogate_coef(ratio, adv.advantages[i], config_);
              CategoricalPolicy::log_prob_cotangent(
                  p, a, coef * inv, dlogits + 2 * k * actions);
              CategoricalPolicy::kl_cotangent(
                  p, probs_old[i], config_.kl_penalty_beta * inv,
                  dlogits + (2 * k + 1) * actions);
              dv[k] = inv * 2.0 * (v[k] - adv.returns[i]);
            }
            logits_net.backward_tile(scratch.policy, dlogits, 2 * m,
                                     kPairedRows.data(), &acc.policy,
                                     nullptr);
            value_net_.backward_tile(scratch.value, dv, m, nullptr,
                                     &acc.value, nullptr);
          });
      grads.policy.clip_norm(config_.grad_clip);
      grads.value.clip_norm(config_.grad_clip);
      policy_opt_->step(policy_->logits_net(), grads.policy);
      value_opt_->step(value_net_, grads.value);
    }
  }
  double observed_kl = util::chunked_reduce(
      pool, batch.size(), kKlGrain, [] { return 0.0; },
      [&](double& acc, std::size_t i) {
        acc += policy_->kl_from(probs_old[i], batch.states[i]);
      },
      [](double& into, const double& from) { into += from; });
  observed_kl /= static_cast<double>(batch.size());
  adapt_beta(config_.kl_penalty_beta, observed_kl, config_.kl_target);
  return observed_kl;
}

void PpoCategorical::initialize(Env& env) {
  if (config_.minibatch == 0)
    throw std::invalid_argument("PpoCategorical: minibatch must be positive");
  rng_ = std::make_unique<util::Rng>(config_.seed);
  policy_ = std::make_unique<CategoricalPolicy>(
      env.state_dim(), config_.policy_hidden, env.action_dim(),
      util::derive_seed(config_.seed, 401));
  value_net_ = nn::Mlp::make(env.state_dim(), config_.value_hidden, 1,
                             nn::Activation::kTanh, nn::Activation::kIdentity,
                             util::derive_seed(config_.seed, 402));
  policy_opt_ = std::make_unique<nn::Adam>(config_.policy_lr);
  value_opt_ = std::make_unique<nn::Adam>(config_.value_lr);
  workers_ = std::make_unique<util::WorkerScope>(config_.num_workers);
  iterations_done_ = 0;
}

PpoStats PpoCategorical::run_iterations(Env& env, int iterations) {
  if (!policy_)
    throw std::logic_error("PpoCategorical::run_iterations: not initialized");
  PpoStats stats;
  for (int iter = 0; iter < iterations; ++iter) {
    const RolloutBatch batch = collect(env, *rng_);
    const AdvantageResult adv =
        compute_gae(batch, config_.gamma, config_.gae_lambda);
    const double kl = update(batch, adv, *rng_);
    std::vector<double> returns;
    double acc = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      acc += batch.rewards[i];
      if (batch.terminal[i] || batch.truncated[i]) {
        returns.push_back(acc);
        acc = 0.0;
      }
    }
    const double mean_ret = mean_episode_return(returns);
    stats.iteration_mean_returns.push_back(mean_ret);
    stats.iteration_kls.push_back(kl);
    if (progress_) progress_(iterations_done_, mean_ret);
    ++iterations_done_;
  }
  return stats;
}

PpoStats PpoCategorical::train(Env& env) {
  initialize(env);
  return run_iterations(env, config_.iterations);
}

}  // namespace cocktail::rl
