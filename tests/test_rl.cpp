// Unit tests for src/rl primitives: replay buffer, OU noise, GAE,
// Gaussian/categorical policies (log-probs, KL, analytic gradients checked
// against finite differences through the per-sample wrappers of
// mlp_reference.h).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "mlp_reference.h"
#include "rl/categorical_policy.h"
#include "rl/gae.h"
#include "rl/gaussian_policy.h"
#include "rl/noise.h"
#include "rl/replay_buffer.h"

namespace cocktail {
namespace {

using la::Vec;

double reward_of(const rl::ReplayBuffer& buffer, std::size_t i) {
  return buffer.row(i)[buffer.reward_offset()];
}

TEST(ReplayBuffer, EvictsOldestAtCapacity) {
  rl::ReplayBuffer buffer(3, 1, 1);
  for (double k = 0; k < 5; ++k)
    buffer.add({{k}, {0.0}, k, {k + 1}, false});
  EXPECT_EQ(buffer.size(), 3u);
  // Only rewards 2, 3, 4 can be sampled now.
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    for (const std::size_t row : buffer.sample(4, rng))
      EXPECT_GE(reward_of(buffer, row), 2.0);
  }
}

TEST(ReplayBuffer, RowsHoldTheTransitionsTheRingKeeps) {
  // Flat rows [s | a | r | s' | done]: a sampled index reads back every
  // field of the transition the ring holds in that slot, and the draws are
  // plain Rng::uniform_index(size()) calls in order.
  const std::size_t capacity = 8;
  rl::ReplayBuffer buffer(capacity, 2, 1);
  const int added = 20;
  const auto transition = [](int i) {
    const double v = static_cast<double>(i);
    return rl::Transition{{v, -v}, {0.5 * v}, 10.0 + v, {v + 1.0, 2.0 * v},
                          i % 3 == 0};
  };
  for (int i = 0; i < added; ++i) buffer.add(transition(i));
  ASSERT_EQ(buffer.row_width(), 7u);
  util::Rng rng(11), replay(11);
  for (const std::size_t slot : buffer.sample(64, rng)) {
    ASSERT_EQ(slot, replay.uniform_index(capacity));
    // Slot j holds the newest add whose ring position was j.
    int newest = static_cast<int>(slot);
    while (newest + static_cast<int>(capacity) < added)
      newest += static_cast<int>(capacity);
    const rl::Transition expected = transition(newest);
    const double* row = buffer.row(slot);
    EXPECT_EQ(row[0], expected.state[0]);
    EXPECT_EQ(row[1], expected.state[1]);
    EXPECT_EQ(row[2], expected.action[0]);
    EXPECT_EQ(row[buffer.reward_offset()], expected.reward);
    EXPECT_EQ(row[buffer.next_state_offset()], expected.next_state[0]);
    EXPECT_EQ(row[buffer.next_state_offset() + 1], expected.next_state[1]);
    EXPECT_EQ(row[buffer.terminal_offset()], expected.terminal ? 1.0 : 0.0);
  }
}

TEST(ReplayBuffer, RejectsMisShapedTransitionsAndZeroSizes) {
  rl::ReplayBuffer buffer(4, 2, 1);
  EXPECT_THROW(buffer.add({{0.0}, {0.0}, 0.0, {0.0, 0.0}, false}),
               std::invalid_argument);
  EXPECT_THROW(buffer.add({{0.0, 0.0}, {}, 0.0, {0.0, 0.0}, false}),
               std::invalid_argument);
  EXPECT_THROW(buffer.add({{0.0, 0.0}, {0.0}, 0.0, {0.0}, false}),
               std::invalid_argument);
  EXPECT_TRUE(buffer.empty());
  EXPECT_THROW((void)rl::ReplayBuffer(0, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)rl::ReplayBuffer(4, 0, 1), std::invalid_argument);
}

TEST(ReplayBuffer, SampleFromEmptyThrows) {
  rl::ReplayBuffer buffer(4, 1, 1);
  util::Rng rng(2);
  EXPECT_THROW((void)buffer.sample(1, rng), std::logic_error);
}

TEST(ReplayBuffer, ClearResets) {
  rl::ReplayBuffer buffer(4, 1, 1);
  buffer.add({{0.0}, {0.0}, 0.0, {0.0}, false});
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  // Refilling after clear() starts the ring over.
  buffer.add({{1.0}, {0.0}, 7.0, {0.0}, false});
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(reward_of(buffer, 0), 7.0);
}

TEST(OuNoise, MeanRevertsToMu) {
  rl::OuNoise noise(1, 0.2, 0.0, 3.0);  // zero sigma: pure drift toward mu.
  noise.reset();
  util::Rng rng(3);
  Vec x;
  for (int t = 0; t < 200; ++t) x = noise.sample(rng);
  EXPECT_NEAR(x[0], 3.0, 1e-6);
}

TEST(OuNoise, IsTemporallyCorrelated) {
  rl::OuNoise noise(1, 0.05, 0.1);
  util::Rng rng(4);
  double corr_sum = 0.0;
  double prev = noise.sample(rng)[0];
  for (int t = 0; t < 5000; ++t) {
    const double cur = noise.sample(rng)[0];
    corr_sum += cur * prev;
    prev = cur;
  }
  EXPECT_GT(corr_sum / 5000.0, 0.0);  // positive lag-1 autocorrelation.
}

TEST(Gae, SingleStepIsTdError) {
  rl::RolloutBatch batch;
  batch.states = {{0.0}};
  batch.actions = {{0.0}};
  batch.rewards = {2.0};
  batch.values = {1.0};
  batch.next_values = {3.0};
  batch.log_probs = {0.0};
  batch.terminal = {false};
  batch.truncated = {true};
  const auto adv = rl::compute_gae(batch, 0.9, 0.95, /*normalize=*/false);
  EXPECT_NEAR(adv.advantages[0], 2.0 + 0.9 * 3.0 - 1.0, 1e-12);
  EXPECT_NEAR(adv.returns[0], adv.advantages[0] + 1.0, 1e-12);
}

TEST(Gae, TerminalCutsBootstrap) {
  rl::RolloutBatch batch;
  batch.states = {{0.0}, {0.0}};
  batch.actions = {{0.0}, {0.0}};
  batch.rewards = {1.0, -10.0};
  batch.values = {0.5, 0.25};
  batch.next_values = {0.25, 99.0};  // 99 must be ignored: terminal.
  batch.log_probs = {0.0, 0.0};
  batch.terminal = {false, true};
  batch.truncated = {false, false};
  const auto adv = rl::compute_gae(batch, 1.0, 1.0, false);
  const double delta1 = -10.0 - 0.25;             // no bootstrap at terminal.
  const double delta0 = 1.0 + 0.25 - 0.5;
  EXPECT_NEAR(adv.advantages[1], delta1, 1e-12);
  EXPECT_NEAR(adv.advantages[0], delta0 + delta1, 1e-12);  // lambda=1 chain.
}

TEST(Gae, TruncationStopsLambdaChainButKeepsBootstrap) {
  rl::RolloutBatch batch;
  batch.states = {{0.0}, {0.0}};
  batch.actions = {{0.0}, {0.0}};
  batch.rewards = {1.0, 1.0};
  batch.values = {0.0, 0.0};
  batch.next_values = {5.0, 5.0};
  batch.log_probs = {0.0, 0.0};
  batch.terminal = {false, false};
  batch.truncated = {true, true};  // two independent truncated episodes.
  const auto adv = rl::compute_gae(batch, 0.5, 0.9, false);
  // Each step: delta = 1 + 0.5*5 - 0 = 3.5, no chaining across truncation.
  EXPECT_NEAR(adv.advantages[0], 3.5, 1e-12);
  EXPECT_NEAR(adv.advantages[1], 3.5, 1e-12);
}

TEST(Gae, NormalizationZeroMeanUnitVar) {
  rl::RolloutBatch batch;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    batch.states.push_back({0.0});
    batch.actions.push_back({0.0});
    batch.rewards.push_back(static_cast<double>(i % 7));
    batch.values.push_back(0.0);
    batch.next_values.push_back(0.0);
    batch.log_probs.push_back(0.0);
    batch.terminal.push_back(false);
    batch.truncated.push_back((i % 8) == 7);
  }
  const auto adv = rl::compute_gae(batch, 0.99, 0.95, true);
  double mean = 0.0, var = 0.0;
  for (double a : adv.advantages) mean += a;
  mean /= n;
  for (double a : adv.advantages) var += (a - mean) * (a - mean);
  var /= n;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(GaussianPolicy, LogProbMatchesClosedForm) {
  rl::GaussianPolicy policy(2, {8}, 2, 0.5, 21);
  const Vec s = {0.3, -0.2};
  const Vec mu = policy.mean(s);
  const Vec a = {mu[0] + 0.1, mu[1] - 0.3};
  double expected = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    const double z = (a[i] - mu[i]) / 0.5;
    expected += -0.5 * z * z - std::log(0.5) -
                0.5 * std::log(2.0 * std::numbers::pi);
  }
  EXPECT_NEAR(policy.log_prob(s, a), expected, 1e-10);
}

TEST(GaussianPolicy, SampleHasCorrectSpread) {
  rl::GaussianPolicy policy(1, {4}, 1, 0.3, 22);
  util::Rng rng(22);
  const Vec s = {0.1};
  const double mu = policy.mean(s)[0];
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double a = policy.sample(s, rng).action[0];
    sum += a;
    sum_sq += a * a;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, mu, 1e-2);
  EXPECT_NEAR(sum_sq / n - mean * mean, 0.09, 5e-3);
}

TEST(GaussianPolicy, KlOfItselfIsZero) {
  rl::GaussianPolicy policy(2, {6}, 2, 0.4, 23);
  const Vec s = {0.5, 0.5};
  EXPECT_NEAR(policy.kl_from(policy.mean(s), policy.stddev(), s), 0.0, 1e-12);
}

TEST(GaussianPolicy, LogProbGradientMatchesFiniteDifference) {
  rl::GaussianPolicy policy(2, {6}, 1, 0.5, 24);
  const Vec s = {0.2, -0.4};
  util::Rng rng(24);
  const Vec a = {policy.mean(s)[0] + 0.37};

  nn::Gradients grads = policy.mean_net().zero_gradients();
  Vec log_std_grads = la::zeros(1);
  // coef = 1 accumulates d(-logpi); finite difference checks d(logpi).
  ref::accumulate_log_prob_gradient(policy, s, a, 1.0, grads,
                                    log_std_grads);

  const double h = 1e-6;
  auto& w = policy.mean_net().layers()[0].w;
  const double saved = w(0, 0);
  const_cast<double&>(w(0, 0)) = saved + h;
  const double up = policy.log_prob(s, a);
  const_cast<double&>(w(0, 0)) = saved - h;
  const double dn = policy.log_prob(s, a);
  const_cast<double&>(w(0, 0)) = saved;
  EXPECT_NEAR(grads.w[0](0, 0), -(up - dn) / (2.0 * h), 1e-5);

  auto& ls = policy.log_std();
  const double saved_ls = ls[0];
  ls[0] = saved_ls + h;
  const double up_ls = policy.log_prob(s, a);
  ls[0] = saved_ls - h;
  const double dn_ls = policy.log_prob(s, a);
  ls[0] = saved_ls;
  EXPECT_NEAR(log_std_grads[0], -(up_ls - dn_ls) / (2.0 * h), 1e-5);
}

TEST(GaussianPolicy, KlGradientMatchesFiniteDifference) {
  rl::GaussianPolicy policy(2, {6}, 1, 0.5, 25);
  const Vec s = {0.1, 0.3};
  const Vec mu_old = {policy.mean(s)[0] + 0.2};
  const Vec std_old = {0.4};

  nn::Gradients grads = policy.mean_net().zero_gradients();
  Vec log_std_grads = la::zeros(1);
  ref::accumulate_kl_gradient(policy, mu_old, std_old, s, 1.0, grads,
                              log_std_grads);

  const double h = 1e-6;
  auto& w = policy.mean_net().layers()[0].w;
  const double saved = w(0, 0);
  const_cast<double&>(w(0, 0)) = saved + h;
  const double up = policy.kl_from(mu_old, std_old, s);
  const_cast<double&>(w(0, 0)) = saved - h;
  const double dn = policy.kl_from(mu_old, std_old, s);
  const_cast<double&>(w(0, 0)) = saved;
  EXPECT_NEAR(grads.w[0](0, 0), (up - dn) / (2.0 * h), 1e-5);

  auto& ls = policy.log_std();
  const double saved_ls = ls[0];
  ls[0] = saved_ls + h;
  const double up_ls = policy.kl_from(mu_old, std_old, s);
  ls[0] = saved_ls - h;
  const double dn_ls = policy.kl_from(mu_old, std_old, s);
  ls[0] = saved_ls;
  EXPECT_NEAR(log_std_grads[0], (up_ls - dn_ls) / (2.0 * h), 1e-5);
}

TEST(GaussianPolicy, EntropyClosedForm) {
  rl::GaussianPolicy policy(1, {4}, 2, 0.5, 26);
  const double expected =
      2.0 * (std::log(0.5) +
             0.5 * std::log(2.0 * std::numbers::pi * std::numbers::e));
  EXPECT_NEAR(policy.entropy(), expected, 1e-12);
}

TEST(Softmax, NormalizesAndOrders) {
  const Vec p = rl::softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableForLargeLogits) {
  const Vec p = rl::softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(CategoricalPolicy, SampleFrequenciesMatchProbabilities) {
  rl::CategoricalPolicy policy(1, {6}, 3, 27);
  const Vec s = {0.4};
  const Vec p = policy.probabilities(s);
  util::Rng rng(27);
  Vec counts(3, 0.0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[policy.sample(s, rng).action] += 1.0;
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(counts[i] / n, p[i], 0.02);
}

TEST(CategoricalPolicy, LogProbGradientMatchesFiniteDifference) {
  rl::CategoricalPolicy policy(2, {5}, 3, 28);
  const Vec s = {0.3, -0.1};
  const std::size_t action = 1;
  nn::Gradients grads = policy.logits_net().zero_gradients();
  ref::accumulate_log_prob_gradient(policy, s, action, 1.0, grads);
  const double h = 1e-6;
  auto& w = policy.logits_net().layers()[0].w;
  const double saved = w(0, 0);
  const_cast<double&>(w(0, 0)) = saved + h;
  const double up = policy.log_prob(s, action);
  const_cast<double&>(w(0, 0)) = saved - h;
  const double dn = policy.log_prob(s, action);
  const_cast<double&>(w(0, 0)) = saved;
  EXPECT_NEAR(grads.w[0](0, 0), -(up - dn) / (2.0 * h), 1e-5);
}

TEST(CategoricalPolicy, KlGradientMatchesFiniteDifference) {
  rl::CategoricalPolicy policy(2, {5}, 3, 29);
  const Vec s = {0.2, 0.2};
  const Vec probs_old = {0.2, 0.5, 0.3};
  nn::Gradients grads = policy.logits_net().zero_gradients();
  ref::accumulate_kl_gradient(policy, probs_old, s, 1.0, grads);
  const double h = 1e-6;
  auto& w = policy.logits_net().layers()[0].w;
  const double saved = w(0, 0);
  const_cast<double&>(w(0, 0)) = saved + h;
  const double up = policy.kl_from(probs_old, s);
  const_cast<double&>(w(0, 0)) = saved - h;
  const double dn = policy.kl_from(probs_old, s);
  const_cast<double&>(w(0, 0)) = saved;
  EXPECT_NEAR(grads.w[0](0, 0), (up - dn) / (2.0 * h), 1e-5);
}

TEST(CategoricalPolicy, KlOfItselfIsZero) {
  rl::CategoricalPolicy policy(1, {4}, 4, 30);
  const Vec s = {0.7};
  EXPECT_NEAR(policy.kl_from(policy.probabilities(s), s), 0.0, 1e-12);
}

// --- cotangent helpers: the tile path PPO runs vs the per-sample reference --

void expect_same_gradients(const nn::Gradients& got,
                           const nn::Gradients& want) {
  ASSERT_EQ(got.w.size(), want.w.size());
  for (std::size_t l = 0; l < want.w.size(); ++l) {
    ASSERT_EQ(got.w[l].data(), want.w[l].data()) << "layer " << l;
    ASSERT_EQ(got.b[l], want.b[l]) << "layer " << l;
  }
}

/// Row map of the PPO chunk: cotangent rows 2k and 2k+1 on recorded row k.
std::vector<std::size_t> paired_rows(std::size_t m) {
  std::vector<std::size_t> rows(2 * m);
  for (std::size_t k = 0; k < rows.size(); ++k) rows[k] = k / 2;
  return rows;
}

TEST(GaussianPolicy, CotangentTileMatchesAccumulateWrappers) {
  // One mean-net forward over a tile, then each sample's log-prob and KL
  // cotangent rows backpropagated together, must equal the reference's
  // per-sample accumulate_* calls (log-prob, then KL, sample by sample)
  // bitwise.
  rl::GaussianPolicy policy(3, {12, 12}, 2, 0.4, 31);
  util::Rng rng(31);
  const std::size_t m = 7;
  std::vector<Vec> states, actions, mus_old;
  Vec x, coefs;
  for (std::size_t k = 0; k < m; ++k) {
    states.push_back(rng.uniform_vec(3, -1.0, 1.0));
    actions.push_back(rng.uniform_vec(2, -1.0, 1.0));
    mus_old.push_back(rng.uniform_vec(2, -0.5, 0.5));
    coefs.push_back(rng.uniform(-2.0, 2.0));
    x.insert(x.end(), states.back().begin(), states.back().end());
  }
  const Vec std_old = {0.3, 0.6};
  const double beta = 0.7;

  nn::Gradients oracle = policy.mean_net().zero_gradients();
  Vec oracle_log_std = la::zeros(2);
  for (std::size_t k = 0; k < m; ++k) {
    ref::accumulate_log_prob_gradient(policy, states[k], actions[k],
                                      coefs[k], oracle, oracle_log_std);
    ref::accumulate_kl_gradient(policy, mus_old[k], std_old, states[k], beta,
                                oracle, oracle_log_std);
  }

  nn::Mlp::Tape tape;
  const double* mu = policy.mean_net().forward_tile(x.data(), m, tape);
  Vec dmu(2 * m * 2);
  Vec log_std = la::zeros(2);
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_EQ(policy.log_prob_of_mean(mu + 2 * k, actions[k]),
              policy.log_prob(states[k], actions[k]));
    policy.log_prob_cotangent(mu + 2 * k, actions[k], coefs[k],
                              dmu.data() + 4 * k, log_std);
    policy.kl_cotangent(mu + 2 * k, mus_old[k], std_old, beta,
                        dmu.data() + 4 * k + 2, log_std);
  }
  nn::Gradients tile = policy.mean_net().zero_gradients();
  const auto rows = paired_rows(m);
  policy.mean_net().backward_tile(tape, dmu.data(), 2 * m, rows.data(),
                                  &tile, nullptr);
  expect_same_gradients(tile, oracle);
  EXPECT_EQ(log_std, oracle_log_std);
}

TEST(CategoricalPolicy, CotangentTileMatchesAccumulateWrappers) {
  rl::CategoricalPolicy policy(2, {10, 10}, 3, 32);
  util::Rng rng(32);
  const std::size_t m = 8;
  std::vector<Vec> states, probs_old;
  std::vector<std::size_t> actions;
  Vec x, coefs;
  for (std::size_t k = 0; k < m; ++k) {
    states.push_back(rng.uniform_vec(2, -1.0, 1.0));
    actions.push_back(rng.uniform_index(3));
    probs_old.push_back(rl::softmax(rng.uniform_vec(3, -1.0, 1.0)));
    coefs.push_back(rng.uniform(-2.0, 2.0));
    x.insert(x.end(), states.back().begin(), states.back().end());
  }
  const double beta = 1.3;

  nn::Gradients oracle = policy.logits_net().zero_gradients();
  for (std::size_t k = 0; k < m; ++k) {
    ref::accumulate_log_prob_gradient(policy, states[k], actions[k],
                                      coefs[k], oracle);
    ref::accumulate_kl_gradient(policy, probs_old[k], states[k], beta, oracle);
  }

  nn::Mlp::Tape tape;
  const double* logits = policy.logits_net().forward_tile(x.data(), m, tape);
  Vec dlogits(2 * m * 3);
  for (std::size_t k = 0; k < m; ++k) {
    const Vec p = rl::softmax(logits + 3 * k, 3);
    EXPECT_EQ(p, policy.probabilities(states[k]));
    EXPECT_EQ(rl::CategoricalPolicy::log_prob_of(p, actions[k]),
              policy.log_prob(states[k], actions[k]));
    rl::CategoricalPolicy::log_prob_cotangent(p, actions[k], coefs[k],
                                              dlogits.data() + 6 * k);
    rl::CategoricalPolicy::kl_cotangent(p, probs_old[k], beta,
                                        dlogits.data() + 6 * k + 3);
  }
  nn::Gradients tile = policy.logits_net().zero_gradients();
  const auto rows = paired_rows(m);
  policy.logits_net().backward_tile(tape, dlogits.data(), 2 * m, rows.data(),
                                    &tile, nullptr);
  expect_same_gradients(tile, oracle);
}

}  // namespace
}  // namespace cocktail
