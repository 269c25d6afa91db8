#include "rl/ppo.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "nn/grad_reduce.h"
#include "nn/optimizer.h"
#include "util/thread_pool.h"

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

/// Per-chunk accumulator of one minibatch: policy-net gradients, log-std
/// gradients (empty for the categorical head), and value-net gradients,
/// merged in fixed chunk order.
struct MinibatchGrads {
  nn::Gradients policy;
  la::Vec log_std;
  nn::Gradients value;

  template <class F>
  void for_each_buffer(F&& f) {
    policy.for_each_buffer(f);
    f(log_std.data(), log_std.size());
    value.for_each_buffer(f);
  }
};

/// Mean return of the episodes that end inside the batch (split at terminal
/// and truncation flags); 0 if none does.
double mean_episode_return(const RolloutBatch& batch) {
  double sum = 0.0, episode = 0.0;
  std::size_t episodes = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    episode += batch.rewards[i];
    if (batch.terminal[i] || batch.truncated[i]) {
      sum += episode;
      episode = 0.0;
      ++episodes;
    }
  }
  return episodes == 0 ? 0.0 : sum / static_cast<double>(episodes);
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

// --- the head adapters ------------------------------------------------------
//
// Everything Ppo<Policy> does differently per action space.  `net` is the
// policy network the optimizer steps; its output row (the Gaussian mean or
// the categorical logits) is what `cotangent_rows` reads and writes.

template <class Policy>
struct Head;

template <>
struct Head<GaussianPolicy> {
  static constexpr std::uint64_t kPolicySeedTag = 301;
  static constexpr std::uint64_t kValueSeedTag = 302;

  /// π_old: the batch states' means and the std at collection time.
  struct Old {
    std::vector<la::Vec> mu;
    la::Vec std;
  };

  static std::unique_ptr<GaussianPolicy> make(const Env& env,
                                              const PpoConfig& config,
                                              std::uint64_t seed) {
    return std::make_unique<GaussianPolicy>(
        env.state_dim(), config.policy_hidden, env.action_dim(),
        config.initial_std, seed);
  }
  static const nn::Mlp& net(const GaussianPolicy& p) { return p.mean_net(); }
  static nn::Mlp& net(GaussianPolicy& p) { return p.mean_net(); }
  static std::size_t log_std_dim(const GaussianPolicy& p) {
    return p.log_std().size();
  }

  /// Samples a ~ π(·|s) into the batch; the env executes it clipped.
  static la::Vec record(const GaussianPolicy& p, const la::Vec& s,
                        util::Rng& rng, RolloutBatch& batch) {
    GaussianPolicy::Sample sample = p.sample(s, rng);
    la::Vec executed = la::clip(sample.action, -1.0, 1.0);
    batch.actions.push_back(std::move(sample.action));
    batch.log_probs.push_back(sample.log_prob);
    return executed;
  }

  static Old freeze(const GaussianPolicy& p, const RolloutBatch& batch,
                    util::ThreadPool* pool) {
    Old old{std::vector<la::Vec>(batch.size()), p.stddev()};
    util::chunked_for(pool, batch.size(), kKlGrain, [&](std::size_t i) {
      old.mu[i] = p.mean(batch.states[i]);
    });
    return old;
  }

  /// Writes sample i's log-prob row, then its KL row, at `rows` from the
  /// mean-net output `mu`, and adds its log-prob, KL, then entropy terms to
  /// `log_std`, in that order.
  static void cotangent_rows(const GaussianPolicy& p, const double* mu,
                             const RolloutBatch& batch, std::size_t i,
                             const Old& old, double advantage, double inv,
                             const PpoConfig& config, double* rows,
                             la::Vec& log_std) {
    const la::Vec& a = batch.actions[i];
    const double ratio =
        std::exp(p.log_prob_of_mean(mu, a) - batch.log_probs[i]);
    p.log_prob_cotangent(mu, a, surrogate_coef(ratio, advantage, config) * inv,
                         rows, log_std);
    p.kl_cotangent(mu, old.mu[i], old.std, config.kl_penalty_beta * inv,
                   rows + p.action_dim(), log_std);
    if (config.entropy_coef > 0.0)
      p.accumulate_entropy_gradient(config.entropy_coef * inv, log_std);
  }

  static void step_log_std(GaussianPolicy& p, nn::AdamVec& opt,
                           const la::Vec& grads) {
    opt.step(p.log_std(), grads);
    for (double& v : p.log_std()) v = std::clamp(v, kLogStdMin, kLogStdMax);
  }

  static double kl(const GaussianPolicy& p, const Old& old, const la::Vec& s,
                   std::size_t i) {
    return p.kl_from(old.mu[i], old.std, s);
  }
};

template <>
struct Head<CategoricalPolicy> {
  static constexpr std::uint64_t kPolicySeedTag = 401;
  static constexpr std::uint64_t kValueSeedTag = 402;

  /// π_old: the batch states' action probabilities at collection time.
  struct Old {
    std::vector<la::Vec> probs;
  };

  static std::unique_ptr<CategoricalPolicy> make(const Env& env,
                                                 const PpoConfig& config,
                                                 std::uint64_t seed) {
    return std::make_unique<CategoricalPolicy>(
        env.state_dim(), config.policy_hidden, env.action_dim(), seed);
  }
  static const nn::Mlp& net(const CategoricalPolicy& p) {
    return p.logits_net();
  }
  static nn::Mlp& net(CategoricalPolicy& p) { return p.logits_net(); }
  static std::size_t log_std_dim(const CategoricalPolicy&) { return 0; }

  /// Samples a choice into the batch; the env receives its index.
  static la::Vec record(const CategoricalPolicy& p, const la::Vec& s,
                        util::Rng& rng, RolloutBatch& batch) {
    const CategoricalPolicy::Sample sample = p.sample(s, rng);
    batch.discrete_actions.push_back(sample.action);
    batch.log_probs.push_back(sample.log_prob);
    return la::Vec{static_cast<double>(sample.action)};
  }

  static Old freeze(const CategoricalPolicy& p, const RolloutBatch& batch,
                    util::ThreadPool* pool) {
    Old old{std::vector<la::Vec>(batch.size())};
    util::chunked_for(pool, batch.size(), kKlGrain, [&](std::size_t i) {
      old.probs[i] = p.probabilities(batch.states[i]);
    });
    return old;
  }

  /// Writes sample i's log-prob row, then its KL row, at `rows` from the
  /// logits-net output `logits`.
  static void cotangent_rows(const CategoricalPolicy& p, const double* logits,
                             const RolloutBatch& batch, std::size_t i,
                             const Old& old, double advantage, double inv,
                             const PpoConfig& config, double* rows,
                             la::Vec& /*log_std*/) {
    const std::size_t a = batch.discrete_actions[i];
    const la::Vec probs = softmax(logits, p.num_actions());
    const double ratio = std::exp(CategoricalPolicy::log_prob_of(probs, a) -
                                  batch.log_probs[i]);
    CategoricalPolicy::log_prob_cotangent(
        probs, a, surrogate_coef(ratio, advantage, config) * inv, rows);
    CategoricalPolicy::kl_cotangent(probs, old.probs[i],
                                    config.kl_penalty_beta * inv,
                                    rows + p.num_actions());
  }

  static void step_log_std(CategoricalPolicy&, nn::AdamVec&,
                           const la::Vec&) {}

  static double kl(const CategoricalPolicy& p, const Old& old,
                   const la::Vec& s, std::size_t i) {
    return p.kl_from(old.probs[i], s);
  }
};

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

template <class Policy>
Ppo<Policy>::Ppo(PpoConfig config) : config_(std::move(config)) {}

template <class Policy>
RolloutBatch Ppo<Policy>::collect(Env& env) {
  // The RNG-split recipe mirrors batch_rollout's per-job seeds: one trainer
  // RNG draw per iteration, episode slot k on the stream derive_seed(seed,
  // k).  The batch stops mid-episode at the step budget.  Reset leaves no
  // cross-episode state in an env, so each episode is a function of its
  // slot stream alone.
  const std::uint64_t seed = rng_->next();
  const auto budget =
      static_cast<std::size_t>(std::max(config_.steps_per_iteration, 1));
  const int horizon = env.max_episode_steps();
  RolloutBatch batch;
  for (std::uint64_t slot = 0; batch.size() < budget; ++slot) {
    util::Rng rng(util::derive_seed(seed, slot));
    la::Vec s = env.reset(rng);
    // Carry V(s) across steps: while the episode continues, next_values[t]
    // and values[t+1] are the same forward on the same state, so the cached
    // value is bitwise identical and halves the value forwards.
    double value_s = value_net_.forward(s)[0];
    for (int t = 1; batch.size() < budget; ++t) {
      const la::Vec action = Head<Policy>::record(*policy_, s, rng, batch);
      const StepResult result = env.step(action, rng);
      const bool time_limit = t >= horizon && !result.terminal;
      const double value_next = value_net_.forward(result.next_state)[0];
      batch.states.push_back(std::move(s));
      batch.rewards.push_back(result.reward);
      batch.values.push_back(value_s);
      batch.next_values.push_back(value_next);
      batch.terminal.push_back(result.terminal);
      batch.truncated.push_back(time_limit);
      if (result.terminal || time_limit) break;
      s = result.next_state;
      value_s = value_next;
    }
  }
  return batch;
}

template <class Policy>
double Ppo<Policy>::update(const RolloutBatch& batch,
                           const AdvantageResult& adv) {
  // Zero epochs leave the policy untouched: KL(pi_old || pi) is exactly 0
  // and no permutation is drawn, so skipping the passes outright is bitwise
  // identical.
  if (config_.update_epochs <= 0) return 0.0;
  using H = Head<Policy>;
  util::ThreadPool* const pool = &util::ThreadPool::shared();
  const Policy& policy = *policy_;
  const nn::Mlp& net = H::net(policy);
  const std::size_t width = net.output_dim();
  // Frozen pi_old, like the batch and advantages, is read-only below, so
  // chunk workers touch only shared immutable state plus their private
  // gradient buffers.
  const typename H::Old old = H::freeze(policy, batch, pool);

  // One reducer per update(), reused by every minibatch of every epoch
  // below (update_epochs * batch/minibatch reduces amortize the buffer
  // allocation); update() itself runs once per training iteration.
  nn::ChunkedGradReducer<MinibatchGrads> reducer(
      std::min(config_.minibatch, batch.size()), kGradGrain, [&] {
        return MinibatchGrads{net.zero_gradients(),
                              la::zeros(H::log_std_dim(policy)),
                              value_net_.zero_gradients()};
      });

  for (int epoch = 0; epoch < config_.update_epochs; ++epoch) {
    const auto perm = rng_->permutation(batch.size());
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
      MinibatchGrads& grads = reducer.reduce(
          pool, end - start,
          [&](MinibatchGrads& acc, std::size_t begin, std::size_t stop) {
            thread_local ChunkScratch scratch;
            const std::size_t m = stop - begin;
            double* x = la::grow_to(scratch.x, m * net.input_dim());
            gather_states(batch.states, perm, start + begin, m, x);
            const double* out = net.forward_tile(x, m, scratch.policy);
            const double* v = value_net_.forward_tile(x, m, scratch.value);
            double* dout = la::grow_to(scratch.dpolicy, 2 * m * width);
            double* dv = la::grow_to(scratch.dvalue, m);
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t i = perm[start + begin + k];
              H::cotangent_rows(policy, out + k * width, batch, i, old,
                                adv.advantages[i], inv, config_,
                                dout + 2 * k * width, acc.log_std);
              // Value regression toward the GAE return.
              dv[k] = inv * 2.0 * (v[k] - adv.returns[i]);
            }
            net.backward_tile(scratch.policy, dout, 2 * m, kPairedRows.data(),
                              &acc.policy, nullptr);
            value_net_.backward_tile(scratch.value, dv, m, nullptr,
                                     &acc.value, nullptr);
          });
      grads.policy.clip_norm(config_.grad_clip);
      grads.value.clip_norm(config_.grad_clip);
      policy_opt_->step(H::net(*policy_), grads.policy);
      H::step_log_std(*policy_, *log_std_opt_, grads.log_std);
      value_opt_->step(value_net_, grads.value);
    }
  }
  // Mean KL over the batch after the updates (for β adaptation); the same
  // fixed-order reduction keeps the sum identical for any worker count.
  double observed_kl = util::chunked_reduce(
      pool, batch.size(), kKlGrain, [] { return 0.0; },
      [&](double& acc, std::size_t i) {
        acc += H::kl(policy, old, batch.states[i], i);
      },
      [](double& into, const double& from) { into += from; });
  observed_kl /= static_cast<double>(batch.size());
  adapt_beta(config_.kl_penalty_beta, observed_kl, config_.kl_target);
  return observed_kl;
}

template <class Policy>
void Ppo<Policy>::initialize(Env& env) {
  if (config_.minibatch == 0)
    throw std::invalid_argument("rl::Ppo: minibatch must be positive");
  using H = Head<Policy>;
  rng_ = std::make_unique<util::Rng>(config_.seed);
  policy_ = H::make(env, config_,
                    util::derive_seed(config_.seed, H::kPolicySeedTag));
  value_net_ = nn::Mlp::make(env.state_dim(), config_.value_hidden, 1,
                             nn::Activation::kTanh, nn::Activation::kIdentity,
                             util::derive_seed(config_.seed, H::kValueSeedTag));
  policy_opt_ = std::make_unique<nn::Adam>(config_.policy_lr);
  value_opt_ = std::make_unique<nn::Adam>(config_.value_lr);
  log_std_opt_ = std::make_unique<nn::AdamVec>(config_.policy_lr);
}

template <class Policy>
PpoStats Ppo<Policy>::run_iterations(Env& env, int iterations) {
  if (!policy_)
    throw std::logic_error("rl::Ppo::run_iterations: not initialized");
  PpoStats stats;
  for (int iter = 0; iter < iterations; ++iter) {
    const RolloutBatch batch = collect(env);
    const AdvantageResult adv =
        compute_gae(batch, config_.gamma, config_.gae_lambda);
    stats.iteration_kls.push_back(update(batch, adv));
    stats.iteration_mean_returns.push_back(mean_episode_return(batch));
  }
  return stats;
}

template <class Policy>
PpoStats Ppo<Policy>::train(Env& env) {
  initialize(env);
  return run_iterations(env, config_.iterations);
}

template class Ppo<GaussianPolicy>;
template class Ppo<CategoricalPolicy>;

}  // namespace cocktail::rl
