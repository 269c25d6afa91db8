// Tests for interval bound propagation and the hybrid abstraction engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "la/kernels.h"
#include "util/rng.h"
#include "verify/ibp.h"
#include "verify/nn_abstraction.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::IBox;
using verify::Interval;

TEST(Ibp, ActivationIntervalsEncloseMonotoneImageTightly) {
  // The image of a monotone activation is [act(lo), act(hi)], outward-
  // rounded, so the enclosure must contain the endpoint images without
  // collapsing to them.  The tanh that executes is la::kernels::tanh.
  const Interval z(-1.0, 2.0);
  const double kSlack = 1e-11;  // a few outward steps at |x| ~ 2.
  const Interval relu = verify::activate_interval(nn::Activation::kRelu, z);
  EXPECT_LE(relu.lo(), 0.0);
  EXPECT_GE(relu.hi(), 2.0);
  EXPECT_NEAR(relu.lo(), 0.0, kSlack);
  EXPECT_NEAR(relu.hi(), 2.0, kSlack);
  const Interval tanh = verify::activate_interval(nn::Activation::kTanh, z);
  EXPECT_LE(tanh.lo(), la::kernels::tanh(-1.0));
  EXPECT_GE(tanh.hi(), la::kernels::tanh(2.0));
  EXPECT_NEAR(tanh.lo(), la::kernels::tanh(-1.0), kSlack);
  EXPECT_NEAR(tanh.hi(), la::kernels::tanh(2.0), kSlack);
}

/// Where the tanh kernel switches formulas, for x > 0: tanh's own branches
/// (2^-55, 1, 22), the high-word thresholds of expm1's reduction at
/// u = -2x (0x3fd62e43, 0x3ff0a2b2), and every boundary of expm1's k —
/// k = -3 below 1, and each k = 4..63 at u = 2x = (k - 1/2) ln2 — where
/// the result formula also changes at k = 20 and k = 57.
std::vector<double> tanh_branch_thresholds() {
  constexpr double kLn2 = 0.69314718055994530942;
  std::vector<double> t = {0x1p-55, 1.0, 22.0,
                           std::bit_cast<double>(0x3fd62e4300000000ULL) / 2,
                           std::bit_cast<double>(0x3ff0a2b200000000ULL) / 2,
                           2.5 * kLn2 / 2};
  for (int k = 4; k <= 63; ++k) t.push_back((k - 0.5) * kLn2 / 2);
  return t;
}

TEST(Ibp, TanhKernelNeverDecreasesNearItsBranchThresholds) {
  // activate_interval encloses tanh over [lo, hi] by its endpoint values,
  // which is sound only if the executed function never decreases by more
  // than outward()'s inflation.  An exact-formula tanh is monotone; a
  // rounded one may dip by an ulp anywhere (outward() absorbs that) but
  // could dip further where it switches formulas, so walk +-20,000 ulps
  // around every switch on both sides of zero and require no dip at all —
  // from the scalar kernel and from both vector instantiations of
  // tanh_rows (the eight-lane one where this host runs it).
  // The thresholds above are within a few ulps of exact.
  constexpr std::int64_t kUlps = 20000;
  std::vector<std::pair<const char*,
                        void (*)(const double*, double*, std::size_t) noexcept>>
      paths = {{"avx2", la::kernels::avx2_kernels().tanh_rows}};
  if (la::kernels::avx512_supported())
    paths.emplace_back("avx512", la::kernels::avx512_kernels().tanh_rows);
  std::vector<double> xs(2 * kUlps + 1);
  std::vector<double> ys(xs.size());
  for (const double c : tanh_branch_thresholds()) {
    for (const double sign : {1.0, -1.0}) {
      const double centre = sign * c;
      double x = centre;
      for (std::int64_t i = 0; i < kUlps; ++i) x = std::nextafter(x, -30.0);
      for (double& v : xs) {
        v = x;
        x = std::nextafter(x, 30.0);
      }
      for (std::size_t i = 0; i < xs.size(); ++i)
        ys[i] = la::kernels::tanh(xs[i]);
      for (std::size_t i = 1; i < xs.size(); ++i)
        ASSERT_LE(ys[i - 1], ys[i])
            << std::hexfloat << "scalar tanh decreases from x = " << xs[i - 1]
            << " to " << xs[i] << " near " << centre;
      for (const auto& [name, rows] : paths) {
        rows(xs.data(), ys.data(), xs.size());
        for (std::size_t i = 1; i < xs.size(); ++i)
          ASSERT_LE(ys[i - 1], ys[i])
              << std::hexfloat << name << " tanh decreases from x = "
              << xs[i - 1] << " to " << xs[i] << " near " << centre;
      }
    }
  }
}

TEST(Ibp, TanhIntervalContainsExecutedValuesOnDenseGrid) {
  // activate_interval(kTanh, [g_i, g_j]) must contain the values tanh_rows
  // (the batched forward's tanh) produces at every grid point in between.
  constexpr std::size_t kPoints = 50001;  // step 1e-3 over [-25, 25]
  std::vector<double> grid(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i)
    grid[i] = -25.0 + 1e-3 * static_cast<double>(i);
  std::vector<double> values(kPoints);
  la::kernels::tanh_rows(grid.data(), values.data(), kPoints);
  for (const std::size_t width : {1u, 7u, 64u}) {
    for (std::size_t i = 0; i + width < kPoints; ++i) {
      const Interval image = verify::activate_interval(
          nn::Activation::kTanh, Interval(grid[i], grid[i + width]));
      for (std::size_t j = i; j <= i + width; ++j)
        ASSERT_TRUE(image.contains(values[j]))
            << "z in [" << grid[i] << ", " << grid[i + width] << "], tanh("
            << grid[j] << ") = " << values[j];
    }
  }
}

TEST(Ibp, PointBoxReproducesForwardPass) {
  const nn::Mlp net = nn::Mlp::make(2, {8, 8}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 1);
  const Vec x = {0.3, -0.7};
  const IBox out = verify::ibp_enclose(net, verify::point_box(x));
  const double y = net.forward(x)[0];
  EXPECT_LE(out[0].lo(), y);
  EXPECT_GE(out[0].hi(), y);
  EXPECT_LT(out[0].width(), 1e-8);
}

class IbpSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IbpSoundness, EnclosesSampledOutputs) {
  // Property: IBP output box contains net(x) for every sampled x in the
  // input box, across architectures and activations.
  const std::uint64_t seed = GetParam();
  for (const auto act : {nn::Activation::kRelu, nn::Activation::kTanh}) {
    const nn::Mlp net = nn::Mlp::make(3, {10, 10}, 2, act,
                                      nn::Activation::kIdentity, seed);
    const IBox box =
        verify::make_box({-0.5, -0.2, 0.0}, {0.5, 0.6, 0.4});
    const IBox out = verify::ibp_enclose(net, box);
    util::Rng rng(seed * 13 + 1);
    for (int k = 0; k < 200; ++k) {
      Vec x(3);
      for (std::size_t d = 0; d < 3; ++d)
        x[d] = rng.uniform(box[d].lo(), box[d].hi());
      const Vec y = net.forward(x);
      for (std::size_t d = 0; d < 2; ++d)
        EXPECT_TRUE(out[d].contains(y[d]))
            << "seed " << seed << " act " << nn::to_string(act);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IbpSoundness, ::testing::Values(1, 2, 3, 4));

TEST(Ibp, WidensWithBoxWidth) {
  const nn::Mlp net = nn::Mlp::make(2, {8}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 5);
  const IBox narrow = verify::make_box({-0.1, -0.1}, {0.1, 0.1});
  const IBox wide = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  EXPECT_LT(verify::ibp_enclose(net, narrow)[0].width(),
            verify::ibp_enclose(net, wide)[0].width());
}

TEST(HybridAbstraction, AtLeastAsTightAsBernstein) {
  // Hybrid and Bernstein share the same partitioning, so intersecting the
  // IBP box at every leaf can only shrink the result.  (No such relation
  // holds against pure-IBP, whose width-proxy partitions differ.)
  nn::Mlp net = nn::Mlp::make(2, {12}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 7);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  const IBox box = verify::make_box({-0.5, -0.5}, {0.5, 0.5});
  const IBox u_unbounded = {Interval(-1e18, 1e18)};

  auto enclose_with = [&](verify::AbstractionMethod method) {
    verify::AbstractionConfig config;
    config.method = method;
    config.epsilon_target = 0.5;
    verify::VerificationBudget budget;
    return verify::NnAbstraction(controller, config)
        .enclose(box, u_unbounded, budget);
  };
  const auto bernstein =
      enclose_with(verify::AbstractionMethod::kBernstein);
  const auto hybrid = enclose_with(verify::AbstractionMethod::kHybrid);
  EXPECT_LE(hybrid.u_range[0].width(), bernstein.u_range[0].width() + 1e-12);
}

TEST(HybridAbstraction, AllEnginesAreSound) {
  nn::Mlp net = nn::Mlp::make(2, {10, 10}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 9);
  const ctrl::NnController controller(std::move(net), {2.0}, "k");
  const IBox box = verify::make_box({-0.3, -0.3}, {0.3, 0.3});
  const IBox u_unbounded = {Interval(-1e18, 1e18)};
  util::Rng rng(10);
  for (const auto method :
       {verify::AbstractionMethod::kBernstein,
        verify::AbstractionMethod::kIntervalPropagation,
        verify::AbstractionMethod::kHybrid}) {
    verify::AbstractionConfig config;
    config.method = method;
    config.epsilon_target = 0.4;
    verify::VerificationBudget budget;
    const auto enclosure = verify::NnAbstraction(controller, config)
                               .enclose(box, u_unbounded, budget);
    for (int k = 0; k < 200; ++k) {
      const Vec x = {rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)};
      EXPECT_TRUE(enclosure.u_range[0].contains(controller.act(x)[0]));
    }
  }
}

TEST(HybridAbstraction, IbpFallsBackToBernsteinForNonNnControllers) {
  // A polynomial controller carries no network weights; requesting IBP
  // must silently degrade to the Bernstein engine rather than fail.
  la::Matrix k(1, 2);
  k(0, 0) = 1.0;
  const auto poly = ctrl::PolynomialController::linear_feedback(k, "lin");
  verify::AbstractionConfig config;
  config.method = verify::AbstractionMethod::kIntervalPropagation;
  const verify::NnAbstraction abstraction(poly, config);
  verify::VerificationBudget budget;
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  const auto enclosure =
      abstraction.enclose(box, {Interval(-1e18, 1e18)}, budget);
  // u = -s0 over [-1,1]^2 -> range ~ [-1, 1].
  EXPECT_LE(enclosure.u_range[0].lo(), -0.9);
  EXPECT_GE(enclosure.u_range[0].hi(), 0.9);
}

}  // namespace
}  // namespace cocktail
