// Tests for the Bernstein-grid layer: the covering-radius formula, the
// degree rule that makes the needed degree linear in the Lipschitz
// constant, and soundness of the sampled enclosure on real MLPs (the core
// of Section III-C).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "control/nn_controller.h"
#include "nn/mlp.h"
#include "util/rng.h"
#include "verify/bernstein.h"
#include "verify/nn_abstraction.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::BernsteinPoly;
using verify::IBox;
using verify::Interval;

TEST(Bernstein, ErrorBoundFormula) {
  // L·‖(w_i/(2·d_i))_i‖₂: half spacings 1.2/4 = 0.3 and 3.2/8 = 0.4 have
  // norm 0.5, so L = 4 gives 2 (the ℓ1 form would give 2.8).
  const IBox box = verify::make_box({0.0, 0.0}, {1.2, 3.2});
  const double bound = BernsteinPoly::error_bound(4.0, box, {2, 4});
  EXPECT_NEAR(bound, 2.0, 1e-12);
}

class BernsteinSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BernsteinSoundness, LipschitzBoundHoldsOnMlps) {
  // Property: κ(x) ∈ NnAbstraction::enclose(box) for real networks, at
  // uniform points and at the centres of the grid cells — the points
  // farthest from every sample.  One partition at a fixed degree, so the
  // enclosure is exactly [min sample, max sample] ± error_bound.  This is
  // the inequality every verification result in this library leans on.
  const std::uint64_t seed = GetParam();
  const ctrl::NnController controller(
      nn::Mlp::make(2, {12, 12}, 1, nn::Activation::kTanh,
                    nn::Activation::kIdentity, seed),
      {1.0}, "mlp");
  const double lipschitz = controller.lipschitz_bound();
  const IBox box = verify::make_box({-0.5, -0.5}, {0.5, 0.5});
  for (const int degree : {2, 4}) {
    verify::AbstractionConfig config;
    config.epsilon_target = 1e-9;  // the degree cap binds.
    config.max_degree = degree;
    config.max_partition_depth = 0;
    verify::VerificationBudget budget;
    const auto enclosure =
        verify::NnAbstraction(controller, config).enclose(box, {}, budget);
    ASSERT_EQ(enclosure.partitions, 1);
    EXPECT_EQ(enclosure.epsilon,
              BernsteinPoly::error_bound(lipschitz, box, {degree, degree}));
    const Interval& range = enclosure.u_range[0];
    std::vector<Vec> points;
    const double cell = 1.0 / degree;
    for (int i = 0; i < degree; ++i)
      for (int j = 0; j < degree; ++j)
        points.push_back({-0.5 + (i + 0.5) * cell, -0.5 + (j + 0.5) * cell});
    util::Rng rng(seed + 777);
    for (int k = 0; k < 200; ++k)
      points.push_back({rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
    for (const Vec& x : points) {
      const double u = controller.act(x)[0];
      EXPECT_TRUE(range.contains(u))
          << "seed " << seed << " degree " << degree << ": " << u
          << " not in " << range.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BernsteinSoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Bernstein, DegreesForHitsTarget) {
  const IBox box = verify::make_box({0.0, 0.0}, {1.0, 1.0});
  double achieved = 0.0;
  const auto degrees =
      BernsteinPoly::degrees_for(2.0, box, 0.5, /*max_degree=*/64, achieved);
  EXPECT_LE(achieved, 0.5 + 1e-12);
  for (int d : degrees) EXPECT_GE(d, 1);
}

TEST(Bernstein, DegreesForGrowsLinearlyWithLipschitz) {
  // The verifiability mechanism: doubling L doubles the needed degree
  // (d = ⌈√n·L·w/(2ε)⌉ = 4 at L = 2 and 8 at L = 4).
  const IBox box = verify::make_box({0.0}, {1.0});
  double achieved = 0.0;
  const auto d1 = BernsteinPoly::degrees_for(2.0, box, 0.25, 100000, achieved);
  const auto d2 = BernsteinPoly::degrees_for(4.0, box, 0.25, 100000, achieved);
  EXPECT_EQ(d1, std::vector<int>{4});
  EXPECT_EQ(d2, std::vector<int>{8});
}

TEST(Bernstein, DegreeCapSignalsInsufficientPrecision) {
  const IBox box = verify::make_box({0.0}, {1.0});
  double achieved = 0.0;
  (void)BernsteinPoly::degrees_for(100.0, box, 0.01, /*max_degree=*/4,
                                   achieved);
  EXPECT_GT(achieved, 0.01);  // cap binds -> caller must partition.
}

TEST(Bernstein, DegreesForClampsHugeRatiosToTheCap) {
  // L = 1e12 on [-1,1]^2 at eps = 1e-3 needs d ≈ 1.4e15 per dimension: the
  // clamp must happen in double, before the int cast (casting 1.4e15 is
  // UB; on x86 it yields {1, 1}).  A NaN Lipschitz bound maps to the cap
  // too.
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  double achieved = 0.0;
  EXPECT_EQ(BernsteinPoly::degrees_for(1e12, box, 1e-3, 10, achieved),
            (std::vector<int>{10, 10}));
  EXPECT_GT(achieved, 1e-3);
  EXPECT_EQ(BernsteinPoly::degrees_for(std::nan(""), box, 1e-3, 10, achieved),
            (std::vector<int>{10, 10}));
}

TEST(Bernstein, DegreesForRejectsACapBelowOne) {
  // A cap below 1 would reach std::clamp(d, 1.0, 0.0), whose precondition
  // it breaks: an assertion under _GLIBCXX_ASSERTIONS, degree 0 and an
  // infinite bound otherwise.
  const IBox box = verify::make_box({0.0}, {1.0});
  double achieved = 0.0;
  for (const int cap : {0, -3})
    EXPECT_THROW((void)BernsteinPoly::degrees_for(2.0, box, 0.25, cap,
                                                  achieved),
                 std::invalid_argument);
}

TEST(Bernstein, GridSpansTheBoxDimensionZeroFastest) {
  const IBox box = verify::make_box({0.0, -1.0, 2.0}, {1.0, 1.0, 3.0});
  const std::vector<double> points = BernsteinPoly::grid(box, {2, 1, 1});
  ASSERT_EQ(points.size(), 3u * 2u * 2u * 3u);
  EXPECT_EQ((std::vector<double>(points.begin(), points.begin() + 9)),
            (std::vector<double>{0.0, -1.0, 2.0, 0.5, -1.0, 2.0, 1.0, -1.0,
                                 2.0}));
  EXPECT_EQ((std::vector<double>(points.end() - 3, points.end())),
            (std::vector<double>{1.0, 1.0, 3.0}));
  EXPECT_THROW((void)BernsteinPoly::grid(box, {1, 1}), std::invalid_argument);
  EXPECT_THROW((void)BernsteinPoly::grid(box, {1, 0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cocktail
