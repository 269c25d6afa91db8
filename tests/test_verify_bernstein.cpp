// Tests for the Bernstein approximation layer: exactness on low-degree
// polynomials, the range-enclosure property, and soundness of the
// Lipschitz error bound on real MLPs (the core of Section III-C).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/mlp.h"
#include "util/rng.h"
#include "verify/bernstein.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::BernsteinPoly;
using verify::IBox;
using verify::Interval;

TEST(Binomial, KnownValues) {
  EXPECT_DOUBLE_EQ(verify::binomial(4, 2), 6.0);
  EXPECT_DOUBLE_EQ(verify::binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(verify::binomial(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(verify::binomial(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(verify::binomial(10, 3), 120.0);
}

TEST(Bernstein, ReproducesLinearFunctionExactly) {
  // Degree-1 Bernstein of an affine function is the function itself.
  const IBox box = verify::make_box({-1.0, 2.0}, {3.0, 5.0});
  const auto f = [](const Vec& x) { return 2.0 * x[0] - x[1] + 0.5; };
  const auto poly = BernsteinPoly::fit(f, box, {1, 1});
  util::Rng rng(1);
  for (int k = 0; k < 50; ++k) {
    const Vec x = {rng.uniform(-1.0, 3.0), rng.uniform(2.0, 5.0)};
    EXPECT_NEAR(poly.eval(x), f(x), 1e-10);
  }
}

TEST(Bernstein, ConvergesToQuadratic) {
  const IBox box = verify::make_box({0.0}, {1.0});
  const auto f = [](const Vec& x) { return x[0] * x[0]; };
  // B_n(x^2) = x^2 + x(1-x)/n: error shrinks like 1/n.
  const auto p4 = BernsteinPoly::fit(f, box, {4});
  const auto p32 = BernsteinPoly::fit(f, box, {32});
  const Vec mid = {0.5};
  EXPECT_NEAR(p4.eval(mid), 0.25 + 0.25 / 4.0, 1e-10);
  EXPECT_NEAR(p32.eval(mid), 0.25 + 0.25 / 32.0, 1e-10);
}

TEST(Bernstein, RangeEnclosesFunctionValues) {
  // Property: hull of coefficients encloses B_d(x) for all x, and (since
  // coefficients are samples of f) the fit values stay within range().
  const IBox box = verify::make_box({-2.0, -2.0}, {2.0, 2.0});
  const auto f = [](const Vec& x) {
    return std::sin(x[0]) * x[1] + 0.3 * x[0];
  };
  const auto poly = BernsteinPoly::fit(f, box, {5, 5});
  const Interval range = poly.range();
  util::Rng rng(2);
  for (int k = 0; k < 300; ++k) {
    const Vec x = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    const double value = poly.eval(x);
    EXPECT_GE(value, range.lo() - 1e-9);
    EXPECT_LE(value, range.hi() + 1e-9);
  }
}

TEST(Bernstein, ErrorBoundFormula) {
  const IBox box = verify::make_box({0.0, 0.0}, {1.0, 2.0});
  // (L/2) * (w0/sqrt(d0) + w1/sqrt(d1)).
  const double bound = BernsteinPoly::error_bound(4.0, box, {4, 16});
  EXPECT_NEAR(bound, 2.0 * (1.0 / 2.0 + 2.0 / 4.0), 1e-12);
}

class BernsteinSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BernsteinSoundness, LipschitzBoundHoldsOnMlps) {
  // Property: |f(x) - B_d(f)(x)| <= error_bound(L, box, d) for real
  // networks, sampled densely.  This is the inequality every verification
  // result in this library leans on.
  const std::uint64_t seed = GetParam();
  const nn::Mlp net = nn::Mlp::make(2, {12, 12}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, seed);
  const double lipschitz = net.lipschitz_upper_bound();
  const IBox box = verify::make_box({-0.5, -0.5}, {0.5, 0.5});
  for (const int degree : {2, 4}) {
    const auto poly = BernsteinPoly::fit(
        [&](const Vec& x) { return net.forward(x)[0]; }, box,
        {degree, degree});
    const double bound =
        BernsteinPoly::error_bound(lipschitz, box, {degree, degree});
    util::Rng rng(seed + 777);
    for (int k = 0; k < 200; ++k) {
      const Vec x = {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
      const double err = std::abs(net.forward(x)[0] - poly.eval(x));
      EXPECT_LE(err, bound + 1e-9) << "seed " << seed << " degree " << degree;
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

TEST(Bernstein, DegreesForGrowsQuadraticallyWithLipschitz) {
  // The verifiability mechanism: doubling L quadruples the needed degree.
  const IBox box = verify::make_box({0.0}, {1.0});
  double achieved = 0.0;
  const auto d1 = BernsteinPoly::degrees_for(2.0, box, 0.25, 100000, achieved);
  const auto d2 = BernsteinPoly::degrees_for(4.0, box, 0.25, 100000, achieved);
  EXPECT_NEAR(static_cast<double>(d2[0]) / static_cast<double>(d1[0]), 4.0,
              0.3);
}

TEST(Bernstein, DegreeCapSignalsInsufficientPrecision) {
  const IBox box = verify::make_box({0.0}, {1.0});
  double achieved = 0.0;
  (void)BernsteinPoly::degrees_for(100.0, box, 0.01, /*max_degree=*/4,
                                   achieved);
  EXPECT_GT(achieved, 0.01);  // cap binds -> caller must partition.
}

TEST(Bernstein, DegreesForClampsHugeRatiosToTheCap) {
  // L = 1e6 on [-1,1]^2 at eps = 1e-3 needs d = 4e18 per dimension: the
  // clamp must happen in double, before the int cast (casting 4e18 is UB;
  // on x86 it yields {1, 1}).  A NaN Lipschitz bound maps to the cap too.
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  double achieved = 0.0;
  EXPECT_EQ(BernsteinPoly::degrees_for(1e6, box, 1e-3, 10, achieved),
            (std::vector<int>{10, 10}));
  EXPECT_GT(achieved, 1e-3);
  EXPECT_EQ(BernsteinPoly::degrees_for(std::nan(""), box, 1e-3, 10, achieved),
            (std::vector<int>{10, 10}));
}

TEST(Bernstein, FromSamplesOnTheGridEqualsFit) {
  // Batched sampling contract: evaluating the grid in one forward_rows call
  // and building from the samples gives fit()'s coefficients bit for bit.
  // 3-D at degrees {10, 10, 10} is 1331 rows, not a multiple of the tile.
  const nn::Mlp net = nn::Mlp::make(3, {9, 7}, 2, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 5);
  const IBox box = verify::make_box({-0.3, 0.1, -2.0}, {0.4, 0.2, 1.5});
  for (const std::vector<int>& degrees :
       {std::vector<int>{10, 10, 10}, std::vector<int>{1, 4, 2}}) {
    const std::vector<double> points = BernsteinPoly::grid(box, degrees);
    const std::size_t rows = points.size() / 3;
    std::vector<double> values(rows * 2);
    net.forward_rows(points.data(), rows, values.data());
    for (std::size_t out = 0; out < 2; ++out) {
      std::vector<double> column(rows);
      for (std::size_t j = 0; j < rows; ++j) column[j] = values[j * 2 + out];
      const auto batched = BernsteinPoly::from_samples(box, degrees, column);
      const auto scalar = BernsteinPoly::fit(
          [&](const Vec& x) { return net.forward(x)[out]; }, box, degrees);
      EXPECT_EQ(batched.coefficients(), scalar.coefficients());
    }
  }
  EXPECT_THROW((void)BernsteinPoly::from_samples(box, {1, 1, 1}, {0.0}),
               std::invalid_argument);
}

TEST(Bernstein, SampleCountMatchesDegreeProduct) {
  const IBox box = verify::make_box({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  const auto poly = BernsteinPoly::fit(
      [](const Vec&) { return 1.0; }, box, {2, 3, 1});
  EXPECT_EQ(poly.sample_count(), 3u * 4u * 2u);
  EXPECT_DOUBLE_EQ(poly.range().lo(), 1.0);
  EXPECT_DOUBLE_EQ(poly.range().hi(), 1.0);
}

}  // namespace
}  // namespace cocktail
