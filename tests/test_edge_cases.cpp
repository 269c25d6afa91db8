// Edge-case and cross-module consistency tests that don't fit a single
// module suite: degenerate configurations, scalar-template equivalence,
// serialization corners, and defensive-error paths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "attack/fgsm.h"
#include "control/nn_controller.h"
#include "core/distiller.h"
#include "core/expert_trainer.h"
#include "core/rollout.h"
#include "la/matrix.h"
#include "nn/mlp.h"
#include "point_mass_envs.h"
#include "rl/categorical_policy.h"
#include "rl/ddpg.h"
#include "rl/env.h"
#include "rl/gaussian_policy.h"
#include "rl/ppo.h"
#include "sys/cartpole.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"
#include "util/csv.h"
#include "verify/interval.h"
#include "verify/nn_abstraction.h"

namespace cocktail {
namespace {

using la::Vec;

TEST(MatrixFactories, RowColDiagonal) {
  const la::Matrix row = la::Matrix::row_vector({1.0, 2.0, 3.0});
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
  const la::Matrix col = la::Matrix::col_vector({1.0, 2.0});
  EXPECT_EQ(col.rows(), 2u);
  EXPECT_EQ(col.cols(), 1u);
  const la::Matrix diag = la::Matrix::diagonal({2.0, 3.0});
  EXPECT_DOUBLE_EQ(diag(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(diag(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(diag(0, 1), 0.0);
}

TEST(MatrixEdge, EmptyMatrixSpectralNormIsZero) {
  const la::Matrix empty;
  EXPECT_DOUBLE_EQ(empty.spectral_norm(), 0.0);
  EXPECT_TRUE(empty.empty());
}

TEST(MlpEdge, SingleLinearLayerNetwork) {
  // make() with no hidden layers produces one affine layer — used by the
  // verification tests to construct exactly-known Lipschitz subjects.
  nn::Mlp net = nn::Mlp::make(3, {}, 2, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 1);
  EXPECT_EQ(net.num_layers(), 1u);
  net.layers()[0].w.fill(0.0);
  net.layers()[0].w(0, 0) = 2.0;
  net.layers()[0].b = {1.0, -1.0};
  const Vec y = net.forward({3.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_NEAR(net.lipschitz_upper_bound(), 2.0, 1e-9);
}

TEST(MlpEdge, EmptyNetworkThrowsOnUse) {
  const nn::Mlp net;
  EXPECT_TRUE(net.empty());
  EXPECT_THROW((void)net.input_dim(), std::logic_error);
  EXPECT_THROW((void)net.output_dim(), std::logic_error);
}

TEST(MlpEdge, TruncatedStreamRejected) {
  nn::Mlp net = nn::Mlp::make(2, {4}, 1, nn::Activation::kRelu,
                              nn::Activation::kIdentity, 2);
  std::stringstream buffer;
  net.save(buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);  // cut the stream mid-weights.
  std::stringstream truncated(text);
  EXPECT_THROW((void)nn::Mlp::load(truncated), std::runtime_error);
}

TEST(TemplatedDynamics, CartpoleDoubleMatchesVirtual) {
  const sys::CartPole cp;
  const std::array<double, 4> s = {0.1, -0.2, 0.05, 0.3};
  const auto direct = sys::cartpole_step<double>(s, 2.5, cp.params());
  const Vec via_virtual = cp.step({s[0], s[1], s[2], s[3]}, {2.5}, {});
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(direct[i], via_virtual[i]);
}

TEST(TemplatedDynamics, ThreeDDoubleMatchesVirtual) {
  const sys::ThreeD sys3;
  const auto direct =
      sys::threed_step<double>({0.2, -0.3, 0.1}, -1.5, sys3.params().tau);
  const Vec via_virtual = sys3.step({0.2, -0.3, 0.1}, {-1.5}, {});
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(direct[i], via_virtual[i]);
}

TEST(CsvEdge, RowTextQuotesCommas) {
  const std::string path = "test_csv_quote.csv";
  {
    util::CsvWriter csv(path, {"a", "b"});
    csv.row_text({"plain", "has,comma"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header.
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"has,comma\"");
  std::remove(path.c_str());
}

TEST(IntervalEdge, ToStringAndDegenerate) {
  const verify::Interval point(1.5);
  EXPECT_DOUBLE_EQ(point.lo(), point.hi());
  EXPECT_EQ(point.to_string(), "[1.5, 1.5]");
  EXPECT_DOUBLE_EQ(point.width(), 0.0);
  EXPECT_DOUBLE_EQ(point.mid(), 1.5);
}

TEST(IntervalEdge, InvalidIntersection) {
  const verify::Interval a(0.0, 1.0), b(2.0, 3.0);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_FALSE(a.intersect(b).valid());
}

TEST(RolloutEdge, ZeroHorizonUsesSystemDefault) {
  const sys::VanDerPol vdp;
  const ctrl::ZeroController zero(2, 1);
  util::Rng rng(1);
  const auto result = core::rollout(vdp, zero, {0.1, 0.1}, nullptr, rng);
  // Runs the paper's T = 100 steps when the config horizon is unset.
  EXPECT_LE(result.steps_taken, 100);
}

TEST(RolloutEdge, AttackedRolloutRecordsClippedControls) {
  const sys::VanDerPol vdp;
  nn::Mlp net = nn::Mlp::make(2, {8}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 3);
  const ctrl::NnController controller(std::move(net), {30.0}, "hot");
  const attack::FgsmAttack fgsm({0.2, 0.2});
  util::Rng rng(4);
  core::RolloutConfig config;
  config.horizon = 30;
  config.record_trajectory = true;
  const auto result =
      core::rollout(vdp, controller, {0.5, 0.5}, &fgsm, rng, config);
  for (const auto& u : result.controls)
    EXPECT_LE(std::abs(u[0]), 20.0 + 1e-12);  // Eq.(4) clip held under attack.
}

TEST(DistillEdge, UniformOnlyDataset) {
  // teacher_rollouts = 0 must still produce a valid dataset.
  const sys::VanDerPol vdp;
  const ctrl::ZeroController zero(2, 1);
  core::DistillConfig config;
  config.teacher_rollouts = 0;
  config.uniform_samples = 100;
  const auto data = core::build_distill_dataset(vdp, zero, config);
  EXPECT_EQ(data.size(), 100u);
}

// --- zero-sized training loops fail closed --------------------------------
//
// Each of these sizes used to hang (a `start += 0` minibatch loop, a
// 0-episode evaluation chunk) or train on nothing (1/0 batch weight); the
// trainers now reject them with std::invalid_argument before any work.

TEST(TrainingConfigEdge, PpoZeroMinibatchThrows) {
  rl::PpoConfig config;
  config.policy_hidden = {4};
  config.value_hidden = {4};
  config.steps_per_iteration = 16;
  config.minibatch = 0;
  testutil::PointMassEnv env;
  rl::PpoGaussian gaussian(config);
  EXPECT_THROW((void)gaussian.train(env), std::invalid_argument);
  testutil::DiscretePointMassEnv discrete_env;
  rl::PpoCategorical categorical(config);
  EXPECT_THROW((void)categorical.train(discrete_env), std::invalid_argument);
}

TEST(TrainingConfigEdge, DdpgZeroBatchSizeThrows) {
  rl::DdpgConfig config;
  config.actor_hidden = {4};
  config.critic_hidden = {4};
  config.episodes = 2;
  config.batch_size = 0;
  testutil::PointMassEnv env;
  rl::Ddpg ddpg(config);
  EXPECT_THROW((void)ddpg.train(env), std::invalid_argument);
}

TEST(TrainingConfigEdge, DistillZeroMinibatchThrows) {
  const sys::VanDerPol system;
  const ctrl::ZeroController teacher(2, 1);
  core::DistillConfig config;
  config.teacher_rollouts = 1;
  config.uniform_samples = 8;
  config.epochs = 1;
  config.minibatch = 0;
  EXPECT_THROW((void)core::distill(system, teacher, config),
               std::invalid_argument);
}

TEST(TrainingConfigEdge, DistillEmptyDatasetThrows) {
  // No teacher rollout and no uniform sample: there is nothing to regress
  // on, and the student would come back untrained with a NaN loss.
  const sys::VanDerPol system;
  const ctrl::ZeroController teacher(2, 1);
  core::DistillConfig config;
  config.teacher_rollouts = 0;
  config.uniform_samples = 0;
  config.epochs = 1;
  EXPECT_THROW((void)core::distill(system, teacher, config),
               std::invalid_argument);
}

TEST(TrainingConfigEdge, ExpertNonPositiveEvalCadenceThrows) {
  for (const int cadence : {0, -3}) {
    core::ExpertSpec spec;
    spec.ddpg.actor_hidden = {4};
    spec.ddpg.critic_hidden = {4};
    spec.ddpg.episodes = 2;
    spec.eval_every_episodes = cadence;
    EXPECT_THROW(
        (void)core::train_ddpg_expert(std::make_shared<sys::VanDerPol>(), spec),
        std::invalid_argument)
        << "eval_every_episodes = " << cadence;
  }
}

// --- policy inputs fail closed --------------------------------------------
//
// Each of these used to crash or sample NaN: softmax of an empty logit row
// dereferenced max_element of an empty range, a categorical head without
// actions did the same on its first sample, and a NaN or infinite
// initial_std made every Gaussian action and log-prob NaN.

/// A well-formed env that offers no actions.
class ZeroActionEnv final : public rl::Env {
 public:
  [[nodiscard]] std::size_t state_dim() const override { return 1; }
  [[nodiscard]] std::size_t action_dim() const override { return 0; }
  [[nodiscard]] int max_episode_steps() const override { return 5; }

 protected:
  la::Vec do_reset(util::Rng&) override { return {0.0}; }
  rl::StepResult do_step(const la::Vec&, util::Rng&) override {
    return {{0.0}, 0.0, false};
  }
};

TEST(PolicyInputEdge, SoftmaxOfEmptyRowThrows) {
  EXPECT_THROW((void)rl::softmax(Vec{}), std::invalid_argument);
  EXPECT_THROW((void)rl::softmax(nullptr, 0), std::invalid_argument);
}

TEST(PolicyInputEdge, CategoricalWithoutActionsThrows) {
  EXPECT_THROW(rl::CategoricalPolicy(1, {4}, 0, 1), std::invalid_argument);
  rl::PpoConfig config;
  config.policy_hidden = {4};
  config.value_hidden = {4};
  config.steps_per_iteration = 16;
  ZeroActionEnv env;
  rl::PpoCategorical ppo(config);
  EXPECT_THROW((void)ppo.train(env), std::invalid_argument);
}

TEST(PolicyInputEdge, GaussianInitialStdMustBeFiniteAndPositive) {
  for (const double bad : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()})
    EXPECT_THROW(rl::GaussianPolicy(1, {4}, 1, bad, 1), std::invalid_argument)
        << bad;
  EXPECT_NO_THROW(rl::GaussianPolicy(1, {4}, 1, 0.5, 1));
}

TEST(AbstractionEdge, PointBoxNeedsOnePartition) {
  nn::Mlp net = nn::Mlp::make(2, {6}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 5);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  verify::AbstractionConfig config;
  config.epsilon_target = 0.5;
  const verify::NnAbstraction abstraction(controller, config);
  verify::VerificationBudget budget;
  const auto enclosure = abstraction.enclose(
      verify::point_box({0.2, -0.2}), {verify::Interval(-1e18, 1e18)},
      budget);
  EXPECT_EQ(enclosure.partitions, 1);
  const double exact = controller.act({0.2, -0.2})[0];
  EXPECT_TRUE(enclosure.u_range[0].contains(exact));
  EXPECT_LT(enclosure.u_range[0].width(), 1.0 + 1e-12);  // <= 2*eps.
}

TEST(SystemEdge, CartpoleOmegaIgnored) {
  // Cartpole declares no disturbance; passing an empty omega must work.
  const sys::CartPole cp;
  EXPECT_EQ(cp.disturbance_dim(), 0u);
  EXPECT_NO_THROW((void)cp.step({0.0, 0.0, 0.0, 0.0}, {1.0}, {}));
}

}  // namespace
}  // namespace cocktail
