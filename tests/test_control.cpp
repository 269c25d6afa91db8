// Unit tests for src/control: every controller type, Jacobians, Lipschitz
// reporting, the Eq.(4) clipping of the mixed design, switching behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "control/controller.h"
#include "control/lqr_controller.h"
#include "control/mixed_controller.h"
#include "control/mpc_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "control/switched_controller.h"
#include "sys/registry.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"

namespace cocktail {
namespace {

using la::Vec;

TEST(ZeroController, Basics) {
  const ctrl::ZeroController zero(3, 2);
  EXPECT_EQ(zero.act({1.0, 2.0, 3.0}), (Vec{0.0, 0.0}));
  EXPECT_EQ(zero.lipschitz_bound(), 0.0);
  EXPECT_TRUE(zero.differentiable());
}

TEST(NnControllerTest, ScalesOutput) {
  nn::Mlp net = nn::Mlp::make(2, {4}, 1, nn::Activation::kTanh,
                              nn::Activation::kTanh, 1);
  const ctrl::NnController scaled(net, {10.0}, "k");
  const ctrl::NnController raw(net, {1.0}, "k");
  const Vec s = {0.5, -0.5};
  EXPECT_NEAR(scaled.act(s)[0], 10.0 * raw.act(s)[0], 1e-14);
}

TEST(NnControllerTest, BroadcastsScalarScale) {
  nn::Mlp net = nn::Mlp::make(2, {4}, 3, nn::Activation::kTanh,
                              nn::Activation::kTanh, 2);
  const ctrl::NnController c(std::move(net), {2.0}, "k");
  EXPECT_EQ(c.control_dim(), 3u);
  EXPECT_EQ(c.out_scale(), (Vec{2.0, 2.0, 2.0}));
}

TEST(NnControllerTest, JacobianIncludesScale) {
  nn::Mlp net = nn::Mlp::make(2, {6}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 3);
  const ctrl::NnController c(net, {4.0}, "k");
  const Vec s = {0.1, 0.2};
  const la::Matrix jc = c.input_jacobian(s);
  const la::Matrix jn = net.input_jacobian(s);
  EXPECT_NEAR(jc(0, 0), 4.0 * jn(0, 0), 1e-14);
  EXPECT_NEAR(jc(0, 1), 4.0 * jn(0, 1), 1e-14);
}

TEST(NnControllerTest, LipschitzScalesWithOutput) {
  nn::Mlp net = nn::Mlp::make(2, {4}, 1, nn::Activation::kTanh,
                              nn::Activation::kTanh, 4);
  const double base = net.lipschitz_upper_bound();
  const ctrl::NnController c(std::move(net), {5.0}, "k");
  EXPECT_NEAR(c.lipschitz_bound(), 5.0 * base, 1e-10);
}

TEST(NnControllerTest, SaveLoadRoundTrip) {
  nn::Mlp net = nn::Mlp::make(2, {5}, 1, nn::Activation::kRelu,
                              nn::Activation::kTanh, 5);
  const ctrl::NnController original(std::move(net), {7.5}, "k");
  const std::string path = "test_nnctl_roundtrip.nnctl";
  original.save_file(path);
  const ctrl::NnController loaded =
      ctrl::NnController::load_file(path, "k-loaded");
  util::Rng rng(6);
  for (int k = 0; k < 20; ++k) {
    const Vec s = rng.normal_vec(2);
    EXPECT_DOUBLE_EQ(original.act(s)[0], loaded.act(s)[0]);
  }
  EXPECT_EQ(loaded.describe(), "k-loaded");
  std::remove(path.c_str());
}

// A malformed scale vector fails closed as std::runtime_error; the length
// cap keeps the 10^12-entry scale from escaping as std::bad_alloc.
TEST(NnControllerTest, LoadRejectsMalformedScale) {
  const std::string net =
      "cocktail-mlp v1\n"
      "1\n"
      "1 2 identity\n"
      "0.5 0.25\n"
      "0.0\n";
  const std::string path = "test_nnctl_bad_scale.nnctl";
  for (const std::string scale :
       {"1000000000000 1.0\n", "0\n", "2 1.0\n", "3 1.0 2.0 3.0\n"}) {
    {
      std::ofstream out(path);
      out << "cocktail-nn-controller v1\n" << scale;
      // The truncated scale ("2 1.0") ends the file; the others are
      // followed by a valid network.
      if (scale != "2 1.0\n") out << net;
    }
    EXPECT_THROW((void)ctrl::NnController::load_file(path, "k"),
                 std::runtime_error)
        << scale;
  }
  std::remove(path.c_str());
}

TEST(NnControllerTest, ActBatchIsBitwiseIdenticalToAct) {
  // The serving contract at the controller layer: batch answers equal the
  // per-sample path exactly, including the non-unit out_scale broadcast.
  nn::Mlp net = nn::Mlp::make(3, {12, 12}, 2, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 21);
  const ctrl::NnController c(std::move(net), {2.5, -0.75}, "k");
  EXPECT_TRUE(c.act_batch({}).empty());
  util::Rng rng(8);
  std::vector<Vec> states;
  for (int k = 0; k < 33; ++k) states.push_back(rng.normal_vec(3));
  const std::vector<Vec> actions = c.act_batch(states);
  ASSERT_EQ(actions.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const Vec expected = c.act(states[i]);
    ASSERT_EQ(actions[i].size(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j)
      ASSERT_EQ(actions[i][j], expected[j]) << "state " << i;
  }
}

TEST(NnControllerTest, ActBatchRejectsWrongStateWidth) {
  // act_batch packs the states into raw rows for Mlp::forward_rows, which
  // reads state_dim() doubles per row: one short state among correct ones
  // would be read past its end, and a long one would shift every row after
  // it.  Each must throw, wherever it sits in the batch, and so must act().
  nn::Mlp net = nn::Mlp::make(3, {8}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 22);
  const ctrl::NnController c(std::move(net), {1.5}, "k");
  const Vec good = {0.1, -0.2, 0.3};
  for (const Vec& bad : {Vec{0.1, -0.2}, Vec{}, Vec{0.1, -0.2, 0.3, 0.4}}) {
    for (std::size_t at = 0; at < 3; ++at) {
      std::vector<Vec> states(3, good);
      states[at] = bad;
      EXPECT_THROW((void)c.act_batch(states), std::invalid_argument)
          << "width " << bad.size() << " at " << at;
    }
    EXPECT_THROW((void)c.act(bad), std::invalid_argument) << bad.size();
  }
  EXPECT_EQ(c.act_batch({good, good}).size(), 2u);
}

TEST(NnControllerTest, SaveFileReportsWriteFailure) {
  // /dev/full opens fine and fails every write with ENOSPC — a full disk.
  // save_file must throw, not return as if a (truncated) file were saved.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "needs /dev/full";
  nn::Mlp net = nn::Mlp::make(2, {8}, 1, nn::Activation::kTanh,
                              nn::Activation::kTanh, 9);
  const ctrl::NnController controller(std::move(net), {2.0}, "k");
  EXPECT_THROW(controller.save_file("/dev/full"), std::runtime_error);
}

TEST(NnControllerTest, SaveLoadRoundTripPreservesNonUnitOutScale) {
  nn::Mlp net = nn::Mlp::make(2, {6}, 2, nn::Activation::kTanh,
                              nn::Activation::kTanh, 13);
  const Vec scale = {7.5, -0.25};
  const ctrl::NnController original(std::move(net), scale, "k");
  const std::string path = "test_nnctl_scale_roundtrip.nnctl";
  original.save_file(path);
  const ctrl::NnController loaded =
      ctrl::NnController::load_file(path, "k-loaded");
  ASSERT_EQ(loaded.out_scale().size(), scale.size());
  for (std::size_t i = 0; i < scale.size(); ++i)
    EXPECT_DOUBLE_EQ(loaded.out_scale()[i], scale[i]);
  util::Rng rng(6);
  for (int k = 0; k < 10; ++k) {
    const Vec s = rng.normal_vec(2);
    EXPECT_EQ(loaded.act(s), original.act(s));
  }
  std::remove(path.c_str());
}

TEST(PolynomialControllerTest, EvaluatesMonomials) {
  // u = 2*s0^2*s1 - 3*s1.
  std::vector<std::vector<ctrl::Monomial>> terms(1);
  terms[0].push_back({2.0, {2, 1}});
  terms[0].push_back({-3.0, {0, 1}});
  const ctrl::PolynomialController poly(2, terms, "p");
  EXPECT_DOUBLE_EQ(poly.act({2.0, 3.0})[0], 2.0 * 4.0 * 3.0 - 9.0);
  EXPECT_EQ(poly.degree(), 3u);
}

TEST(PolynomialControllerTest, JacobianMatchesFiniteDifference) {
  std::vector<std::vector<ctrl::Monomial>> terms(1);
  terms[0].push_back({1.5, {2, 1}});
  terms[0].push_back({-0.5, {0, 3}});
  const ctrl::PolynomialController poly(2, terms, "p");
  const Vec s = {0.7, -0.4};
  const la::Matrix jac = poly.input_jacobian(s);
  const double h = 1e-6;
  for (std::size_t j = 0; j < 2; ++j) {
    Vec sp = s, sm = s;
    sp[j] += h;
    sm[j] -= h;
    EXPECT_NEAR(jac(0, j), (poly.act(sp)[0] - poly.act(sm)[0]) / (2.0 * h),
                1e-6);
  }
}

TEST(PolynomialControllerTest, LinearFeedbackActsAsMinusKs) {
  la::Matrix k(1, 3);
  k(0, 0) = 1.0;
  k(0, 1) = -2.0;
  k(0, 2) = 0.5;
  const auto poly = ctrl::PolynomialController::linear_feedback(k, "lin");
  const Vec s = {1.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(poly.act(s)[0], -(1.0 - 2.0 + 1.0));
  EXPECT_EQ(poly.degree(), 1u);
  // Degree-1: exact Lipschitz bound = ||K||.
  EXPECT_NEAR(poly.lipschitz_bound(), k.spectral_norm(), 1e-9);
}

/// Max Jacobian spectral norm over a uniform grid of `samples_per_dim`
/// points per dimension spanning [lo, hi]: an empirical Lipschitz bound.
double max_jacobian_norm(const ctrl::PolynomialController& poly, const Vec& lo,
                         const Vec& hi, int samples_per_dim) {
  const auto n = static_cast<std::size_t>(samples_per_dim);
  std::size_t total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) total *= n;
  double best = 0.0;
  Vec s(lo.size());
  for (std::size_t index = 0; index < total; ++index) {
    std::size_t rem = index;
    for (std::size_t d = 0; d < lo.size(); ++d) {
      const auto k = static_cast<double>(rem % n);
      rem /= n;
      s[d] = lo[d] + (hi[d] - lo[d]) * k / static_cast<double>(n - 1);
    }
    best = std::max(best, poly.input_jacobian(s).spectral_norm());
  }
  return best;
}

TEST(PolynomialControllerTest, HighDegreeLipschitzViaBox) {
  std::vector<std::vector<ctrl::Monomial>> terms(1);
  terms[0].push_back({1.0, {2}});  // u = s^2, slope 2|s| <= 2 on [-1,1].
  const ctrl::PolynomialController poly(1, terms, "sq");
  EXPECT_LT(poly.lipschitz_bound(), 0.0);  // no closed-form for degree 2.
  const double l = max_jacobian_norm(poly, {-1.0}, {1.0}, 21);
  EXPECT_NEAR(l, 2.0, 1e-9);
}

TEST(LqrControllerTest, StabilizesVanDerPolLinearization) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.1);
  // Simulate the true nonlinear system from a moderate state.
  Vec s = {0.8, -0.5};
  for (int t = 0; t < 300; ++t)
    s = vdp.step(s, vdp.clip_control(lqr.act(s)), {0.0});
  EXPECT_LT(la::norm_l2(s), 0.05);
}

TEST(LqrControllerTest, JacobianIsMinusGain) {
  const sys::ThreeD sys3;
  const auto lqr = ctrl::LqrController::synthesize(sys3, 1.0, 1.0);
  const la::Matrix jac = lqr.input_jacobian({0.1, 0.2, 0.3});
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_DOUBLE_EQ(jac(0, j), -lqr.gain()(0, j));
  EXPECT_NEAR(lqr.lipschitz_bound(), lqr.gain().spectral_norm(), 1e-12);
}

TEST(MixedControllerTest, WeightedSumWithClip) {
  // Two constant-ish experts via linear feedback; weight net fixed.
  la::Matrix k1(1, 2), k2(1, 2);
  k1(0, 0) = -6.0;  // act = +6 s0.
  k2(0, 1) = -2.0;  // act = +2 s1.
  auto e1 = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k1, "e1"));
  auto e2 = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k2, "e2"));
  nn::Mlp weight_net = nn::Mlp::make(2, {4}, 2, nn::Activation::kTanh,
                                     nn::Activation::kTanh, 7);
  const sys::Box u_bounds = sys::Box::symmetric(1, 5.0);
  const ctrl::MixedController mixed({e1, e2}, weight_net, 1.5, u_bounds);

  const Vec s = {1.0, 1.0};
  const Vec a = mixed.weights(s);
  ASSERT_EQ(a.size(), 2u);
  for (double w : a) EXPECT_LE(std::abs(w), 1.5);
  const double raw = a[0] * e1->act(s)[0] + a[1] * e2->act(s)[0];
  const double expected = std::clamp(raw, -5.0, 5.0);
  EXPECT_NEAR(mixed.act(s)[0], expected, 1e-12);
}

TEST(MixedControllerTest, ClipsToControlBounds) {
  la::Matrix k(1, 1);
  k(0, 0) = -100.0;  // enormous expert output.
  auto big = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k, "big"));
  nn::Mlp weight_net = nn::Mlp::make(1, {4}, 1, nn::Activation::kTanh,
                                     nn::Activation::kTanh, 8);
  const ctrl::MixedController mixed({big}, weight_net, 2.0,
                                    sys::Box::symmetric(1, 1.0));
  for (double s : {-1.0, -0.3, 0.4, 1.0})
    EXPECT_LE(std::abs(mixed.act({s})[0]), 1.0);
}

TEST(MixedControllerTest, RejectsWeightBoundBelowOne) {
  auto zero = std::make_shared<ctrl::ZeroController>(1, 1);
  nn::Mlp net = nn::Mlp::make(1, {2}, 1, nn::Activation::kTanh,
                              nn::Activation::kTanh, 9);
  EXPECT_THROW(ctrl::MixedController({zero}, net, 0.5,
                                     sys::Box::symmetric(1, 1.0)),
               std::invalid_argument);
}

TEST(MixedControllerTest, ReportsNoLipschitz) {
  auto zero = std::make_shared<ctrl::ZeroController>(1, 1);
  nn::Mlp net = nn::Mlp::make(1, {2}, 1, nn::Activation::kTanh,
                              nn::Activation::kTanh, 10);
  const ctrl::MixedController mixed({zero}, std::move(net), 1.5,
                                    sys::Box::symmetric(1, 1.0));
  EXPECT_LT(mixed.lipschitz_bound(), 0.0);  // Table I prints "-".
  EXPECT_FALSE(mixed.differentiable());
}

TEST(SwitchedControllerTest, PicksArgmaxExpert) {
  auto zero = std::make_shared<ctrl::ZeroController>(1, 1);
  la::Matrix k(1, 1);
  k(0, 0) = -1.0;
  auto lin = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k, "lin"));
  nn::Mlp selector = nn::Mlp::make(1, {4}, 2, nn::Activation::kTanh,
                                   nn::Activation::kIdentity, 11);
  const ctrl::SwitchedController switched({zero, lin}, selector, "AS");
  const Vec s = {0.8};
  const std::size_t chosen = switched.selected_expert(s);
  const Vec expected = chosen == 0 ? zero->act(s) : lin->act(s);
  EXPECT_EQ(switched.act(s), expected);
}

TEST(SwitchedControllerTest, OutputAlwaysMatchesSomeExpert) {
  // Property: for any state, AS's output equals one expert's output —
  // switching is a strict subset of the mixing action space.
  la::Matrix k1(1, 2), k2(1, 2);
  k1(0, 0) = -3.0;
  k2(0, 1) = -1.0;
  auto e1 = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k1, "e1"));
  auto e2 = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k2, "e2"));
  nn::Mlp selector = nn::Mlp::make(2, {6}, 2, nn::Activation::kTanh,
                                   nn::Activation::kIdentity, 12);
  const ctrl::SwitchedController switched({e1, e2}, std::move(selector));
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec s = rng.normal_vec(2);
    const double u = switched.act(s)[0];
    const bool matches =
        std::abs(u - e1->act(s)[0]) < 1e-12 ||
        std::abs(u - e2->act(s)[0]) < 1e-12;
    EXPECT_TRUE(matches);
  }
}

TEST(MpcControllerTest, StabilizesThreeDSystem) {
  auto system = std::make_shared<sys::ThreeD>();
  ctrl::MpcConfig config;
  config.planning_horizon = 10;
  config.samples = 64;
  config.elites = 8;
  config.iterations = 3;
  const ctrl::MpcController mpc(system, config);
  Vec s = {0.3, -0.2, 0.2};
  for (int t = 0; t < 80; ++t) {
    s = system->step(s, system->clip_control(mpc.act(s)), {});
    ASSERT_TRUE(system->is_safe(s)) << "left X at step " << t;
  }
  EXPECT_LT(la::norm_l2(s), 0.3);
}

TEST(MpcControllerTest, IsDeterministicPerState) {
  auto system = std::make_shared<sys::ThreeD>();
  ctrl::MpcConfig config;
  config.samples = 32;
  config.iterations = 2;
  const ctrl::MpcController mpc(system, config);
  const Vec s = {0.1, 0.0, -0.1};
  EXPECT_EQ(mpc.act(s), mpc.act(s));
}

TEST(ControllerBase, NonDifferentiableJacobianThrows) {
  auto system = std::make_shared<sys::ThreeD>();
  const ctrl::MpcController mpc(system);
  EXPECT_FALSE(mpc.differentiable());
  EXPECT_THROW((void)mpc.input_jacobian({0.0, 0.0, 0.0}), std::logic_error);
  EXPECT_LT(mpc.lipschitz_bound(), 0.0);
}

}  // namespace
}  // namespace cocktail
