// Property tests for the RL substrate primitives:
//   * rl::compute_gae — λ = 0 collapses to the one-step TD residual, λ = 1
//     to the discounted Monte-Carlo residual, terminal boundaries drop the
//     bootstrap while truncation keeps it, and the whole batch equals the
//     segment-wise reference implementation bitwise;
//   * rl::ReplayBuffer — ring wraparound keeps exactly the newest
//     `capacity` transitions, sampling stays within bounds, and draws are
//     deterministic per RNG stream.
// Randomized inputs come from seeded util::Rng streams so every property is
// exercised over many shapes yet stays exactly reproducible.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "rl/gae.h"
#include "rl/replay_buffer.h"
#include "util/rng.h"

namespace cocktail {
namespace {

/// Random batch with episode boundaries: each step is terminal with
/// probability p_term, truncated with p_trunc (never both).
rl::RolloutBatch random_batch(std::size_t n, util::Rng& rng,
                              double p_term = 0.06, double p_trunc = 0.06) {
  rl::RolloutBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.states.push_back({rng.uniform(-1.0, 1.0)});
    batch.actions.push_back({rng.uniform(-1.0, 1.0)});
    batch.rewards.push_back(rng.uniform(-2.0, 2.0));
    batch.values.push_back(rng.uniform(-1.0, 1.0));
    batch.next_values.push_back(rng.uniform(-1.0, 1.0));
    batch.log_probs.push_back(rng.uniform(-3.0, 0.0));
    const bool terminal = rng.bernoulli(p_term);
    batch.terminal.push_back(terminal);
    batch.truncated.push_back(!terminal && rng.bernoulli(p_trunc));
  }
  return batch;
}

/// δ_t = r_t + γ·V(s_{t+1})·(1 - terminal_t) − V(s_t), the common residual.
double td_delta(const rl::RolloutBatch& batch, std::size_t t, double gamma) {
  const double not_terminal = batch.terminal[t] ? 0.0 : 1.0;
  return batch.rewards[t] + gamma * batch.next_values[t] * not_terminal -
         batch.values[t];
}

TEST(GaeProperties, LambdaZeroIsOneStepTdResidual) {
  util::Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const auto batch = random_batch(120, rng);
    const auto adv = rl::compute_gae(batch, 0.93, 0.0, /*normalize=*/false);
    for (std::size_t t = 0; t < batch.size(); ++t) {
      // λ = 0 kills the recursion term exactly (delta + γ·0·gae), so the
      // equality is bitwise, not approximate.
      EXPECT_EQ(adv.advantages[t], td_delta(batch, t, 0.93)) << "t=" << t;
      EXPECT_EQ(adv.returns[t], adv.advantages[t] + batch.values[t]);
    }
  }
}

TEST(GaeProperties, LambdaOneIsDiscountedMonteCarloResidual) {
  util::Rng rng(102);
  const double gamma = 0.9;
  for (int trial = 0; trial < 10; ++trial) {
    const auto batch = random_batch(100, rng);
    const auto adv = rl::compute_gae(batch, gamma, 1.0, /*normalize=*/false);
    for (std::size_t t = 0; t < batch.size(); ++t) {
      // Â_t = Σ_{k=t}^{b} γ^{k-t} δ_k up to the episode boundary b: the
      // full discounted return-to-go minus the value baseline.
      double expected = 0.0;
      double discount = 1.0;
      for (std::size_t k = t; k < batch.size(); ++k) {
        expected += discount * td_delta(batch, k, gamma);
        discount *= gamma;
        if (batch.terminal[k] || batch.truncated[k]) break;
      }
      EXPECT_NEAR(adv.advantages[t], expected, 1e-9) << "t=" << t;
    }
  }
}

TEST(GaeProperties, TerminalDropsBootstrapTruncationKeepsIt) {
  // Two single-step batches identical except for the boundary kind: the
  // terminal one must ignore next_value entirely, the truncated one must
  // bootstrap through it.
  rl::RolloutBatch batch;
  batch.states = {{0.0}};
  batch.actions = {{0.0}};
  batch.rewards = {1.5};
  batch.values = {0.25};
  batch.next_values = {4.0};
  batch.log_probs = {0.0};
  batch.terminal = {true};
  batch.truncated = {false};
  const auto terminal = rl::compute_gae(batch, 0.9, 0.95, false);
  EXPECT_DOUBLE_EQ(terminal.advantages[0], 1.5 - 0.25);

  batch.terminal = {false};
  batch.truncated = {true};
  const auto truncated = rl::compute_gae(batch, 0.9, 0.95, false);
  EXPECT_DOUBLE_EQ(truncated.advantages[0], 1.5 + 0.9 * 4.0 - 0.25);
}

TEST(GaeProperties, MatchesSegmentwiseReferenceBitwise) {
  // Splitting the batch at its episode boundaries and running the recursion
  // per segment performs the identical arithmetic in the identical order,
  // so the whole-batch result must match bitwise — the λ-chain can never
  // leak across a terminal or truncation boundary.
  util::Rng rng(103);
  for (int trial = 0; trial < 5; ++trial) {
    const auto batch = random_batch(90, rng, 0.1, 0.1);
    const double gamma = 0.97, lambda = 0.8;
    const auto adv = rl::compute_gae(batch, gamma, lambda, false);
    std::vector<double> reference(batch.size(), 0.0);
    std::size_t segment_end = batch.size();  // one past the segment.
    for (std::size_t t = batch.size(); t-- > 0;) {
      if (batch.terminal[t] || batch.truncated[t]) segment_end = t + 1;
      double gae = 0.0;
      for (std::size_t k = segment_end; k-- > t;) {
        const bool boundary = batch.terminal[k] || batch.truncated[k];
        gae = td_delta(batch, k, gamma) +
              (boundary ? 0.0 : gamma * lambda * gae);
      }
      reference[t] = gae;
    }
    for (std::size_t t = 0; t < batch.size(); ++t)
      EXPECT_EQ(adv.advantages[t], reference[t]) << "t=" << t;
  }
}

TEST(ReplayBufferProperties, WraparoundKeepsExactlyTheNewestCapacity) {
  // Overfill by 2.5x: only the newest `capacity` rewards may ever be
  // sampled, and all of them must be reachable.
  const std::size_t capacity = 8;
  rl::ReplayBuffer buffer(capacity, 1, 1);
  const int added = 20;
  for (int i = 0; i < added; ++i)
    buffer.add({{static_cast<double>(i)}, {0.0}, static_cast<double>(i),
                {0.0}, false});
  EXPECT_EQ(buffer.size(), capacity);
  EXPECT_EQ(buffer.capacity(), capacity);

  util::Rng rng(7);
  std::set<int> seen;
  for (int draw = 0; draw < 400; ++draw) {
    for (const std::size_t row : buffer.sample(4, rng)) {
      const int reward =
          static_cast<int>(buffer.row(row)[buffer.reward_offset()]);
      EXPECT_GE(reward, added - static_cast<int>(capacity));
      EXPECT_LT(reward, added);
      seen.insert(reward);
    }
  }
  EXPECT_EQ(seen.size(), capacity);  // every survivor reachable.
}

TEST(ReplayBufferProperties, SamplesStayWithinBounds) {
  rl::ReplayBuffer buffer(64, 1, 1);
  util::Rng fill(8);
  for (int i = 0; i < 11; ++i)  // partially filled: bound is size, not cap.
    buffer.add({{fill.uniform(-1.0, 1.0)}, {0.0}, static_cast<double>(i),
                {0.0}, false});
  util::Rng rng(9);
  for (int draw = 0; draw < 100; ++draw) {
    const auto batch = buffer.sample(5, rng);
    ASSERT_EQ(batch.size(), 5u);
    for (const std::size_t row : batch) {
      ASSERT_LT(row, buffer.size());
      const double reward = buffer.row(row)[buffer.reward_offset()];
      EXPECT_GE(reward, 0.0);
      EXPECT_LT(reward, 11.0);
    }
  }
}

TEST(ReplayBufferProperties, DrawsAreDeterministicPerRngStream) {
  rl::ReplayBuffer buffer(16, 1, 1);
  for (int i = 0; i < 16; ++i)
    buffer.add({{0.0}, {0.0}, static_cast<double>(i), {0.0}, false});

  const auto draw_rewards = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<double> rewards;
    for (int k = 0; k < 64; ++k)
      for (const std::size_t row : buffer.sample(3, rng))
        rewards.push_back(buffer.row(row)[buffer.reward_offset()]);
    return rewards;
  };
  EXPECT_EQ(draw_rewards(5), draw_rewards(5));    // same stream, same draws.
  EXPECT_NE(draw_rewards(5), draw_rewards(6));    // streams decorrelated.
}

}  // namespace
}  // namespace cocktail
