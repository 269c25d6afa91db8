// Unit tests for src/sys: paper dynamics, safe/initial/control sets,
// linearizations (checked against finite differences), registry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sys/cartpole.h"
#include "sys/registry.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"

namespace cocktail {
namespace {

using la::Vec;

TEST(Box, ContainsAndSample) {
  const sys::Box box({-1.0, 0.0}, {1.0, 2.0});
  EXPECT_TRUE(box.contains({0.0, 1.0}));
  EXPECT_FALSE(box.contains({1.5, 1.0}));
  EXPECT_FALSE(box.contains({0.0, -0.1}));
  util::Rng rng(1);
  for (int k = 0; k < 100; ++k) EXPECT_TRUE(box.contains(box.sample(rng)));
}

TEST(Box, CenterAndHalfWidths) {
  const sys::Box box({-1.0, 0.0}, {3.0, 2.0});
  EXPECT_EQ(box.center(), (Vec{1.0, 1.0}));
  EXPECT_EQ(box.half_widths(), (Vec{2.0, 1.0}));
}

TEST(Box, RejectsInvertedAndNanBounds) {
  EXPECT_THROW(sys::Box({1.0}, {0.0}), std::invalid_argument);
  // `lo > hi` is false for NaN, so a NaN bound used to pass, and
  // contains() then treated that side as unconstrained.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sys::Box({nan, -1.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(sys::Box({0.0}, {nan}), std::invalid_argument);
  EXPECT_THROW((void)sys::Box::symmetric(2, nan), std::invalid_argument);
  // ±inf stay legal: they mark unbounded dimensions.
  const sys::Box open({-sys::Box::kUnbounded, -1.0},
                      {sys::Box::kUnbounded, 1.0});
  EXPECT_TRUE(open.contains({-50.0, 0.5}));
  EXPECT_FALSE(open.contains({0.0, -50.0}));
}

TEST(Box, UnboundedDetection) {
  const sys::Box bounded = sys::Box::symmetric(2, 1.0);
  EXPECT_TRUE(bounded.bounded());
  const sys::Box open({-sys::Box::kUnbounded}, {1.0});
  EXPECT_FALSE(open.bounded());
  util::Rng rng(2);
  EXPECT_THROW((void)open.sample(rng), std::logic_error);
}

TEST(VanDerPolTest, PaperConstants) {
  const sys::VanDerPol vdp;
  EXPECT_EQ(vdp.state_dim(), 2u);
  EXPECT_EQ(vdp.control_dim(), 1u);
  EXPECT_EQ(vdp.horizon(), 100);
  EXPECT_DOUBLE_EQ(vdp.dt(), 0.05);
  EXPECT_EQ(vdp.safe_region().lo, (Vec{-2.0, -2.0}));
  EXPECT_EQ(vdp.control_bounds().hi, (Vec{20.0}));
  EXPECT_EQ(vdp.disturbance_bounds().hi, (Vec{0.05}));
}

TEST(VanDerPolTest, StepMatchesHandComputation) {
  const sys::VanDerPol vdp;
  // s1' = s1 + tau*s2; s2' = s2 + tau*((1-s1^2)s2 - s1 + u) + w.
  const Vec next = vdp.step({1.0, 2.0}, {3.0}, {0.01});
  EXPECT_NEAR(next[0], 1.0 + 0.05 * 2.0, 1e-15);
  EXPECT_NEAR(next[1], 2.0 + 0.05 * ((1.0 - 1.0) * 2.0 - 1.0 + 3.0) + 0.01,
              1e-15);
}

TEST(VanDerPolTest, UncontrolledDivergesFromLargeAmplitude) {
  // The Van der Pol limit cycle exceeds |s1| = 2 near its extremes, so the
  // uncontrolled system can leave X — the safety problem is non-trivial.
  const sys::VanDerPol vdp;
  Vec s = {1.9, 1.2};
  bool left = false;
  for (int t = 0; t < 300 && !left; ++t) {
    s = vdp.step(s, {0.0}, {0.0});
    left = !vdp.is_safe(s);
  }
  EXPECT_TRUE(left);
}

TEST(VanDerPolTest, LinearizationMatchesFiniteDifference) {
  const sys::VanDerPol vdp;
  la::Matrix a, b;
  vdp.linearize(a, b);
  const double h = 1e-6;
  for (std::size_t j = 0; j < 2; ++j) {
    Vec sp = {0.0, 0.0}, sm = {0.0, 0.0};
    sp[j] += h;
    sm[j] -= h;
    const Vec fp = vdp.step(sp, {0.0}, {0.0});
    const Vec fm = vdp.step(sm, {0.0}, {0.0});
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_NEAR(a(i, j), (fp[i] - fm[i]) / (2.0 * h), 1e-6);
  }
  const Vec fp = vdp.step({0.0, 0.0}, {h}, {0.0});
  const Vec fm = vdp.step({0.0, 0.0}, {-h}, {0.0});
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(b(i, 0), (fp[i] - fm[i]) / (2.0 * h), 1e-6);
}

TEST(ThreeDTest, PaperConstants) {
  const sys::ThreeD sys3;
  EXPECT_EQ(sys3.state_dim(), 3u);
  EXPECT_EQ(sys3.horizon(), 100);
  EXPECT_EQ(sys3.safe_region().hi, (Vec{0.5, 0.5, 0.5}));
  EXPECT_EQ(sys3.control_bounds().hi, (Vec{10.0}));
  EXPECT_EQ(sys3.disturbance_dim(), 0u);
}

TEST(ThreeDTest, StepMatchesHandComputation) {
  const sys::ThreeD sys3;
  // x' = x + tau*(y + 0.5 z^2); y' = y + tau*z; z' = z + tau*u.
  const Vec next = sys3.step({0.1, 0.2, 0.4}, {2.0}, {});
  EXPECT_NEAR(next[0], 0.1 + 0.05 * (0.2 + 0.5 * 0.16), 1e-15);
  EXPECT_NEAR(next[1], 0.2 + 0.05 * 0.4, 1e-15);
  EXPECT_NEAR(next[2], 0.4 + 0.05 * 2.0, 1e-15);
}

TEST(ThreeDTest, LinearizationIsTripleIntegrator) {
  const sys::ThreeD sys3;
  la::Matrix a, b;
  sys3.linearize(a, b);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.05);
  EXPECT_DOUBLE_EQ(a(1, 2), 0.05);
  EXPECT_DOUBLE_EQ(a(0, 2), 0.0);  // z² term vanishes at origin.
  EXPECT_DOUBLE_EQ(b(2, 0), 0.05);
}

TEST(CartPoleTest, PaperConstants) {
  const sys::CartPole cp;
  EXPECT_EQ(cp.state_dim(), 4u);
  EXPECT_EQ(cp.horizon(), 200);
  EXPECT_DOUBLE_EQ(cp.dt(), 0.02);
  EXPECT_DOUBLE_EQ(cp.params().mass_total(), 1.1);
  const sys::Box x = cp.safe_region();
  EXPECT_DOUBLE_EQ(x.lo[0], -2.4);
  EXPECT_DOUBLE_EQ(x.hi[2], 0.209);
  EXPECT_FALSE(x.bounded());  // velocities unconstrained.
  EXPECT_TRUE(cp.sampling_region().bounded());
  EXPECT_EQ(cp.initial_set().hi, (Vec{0.2, 0.2, 0.2, 0.2}));
}

TEST(CartPoleTest, UprightIsEquilibrium) {
  const sys::CartPole cp;
  const Vec origin = {0.0, 0.0, 0.0, 0.0};
  const Vec next = cp.step(origin, {0.0}, {});
  for (double v : next) EXPECT_NEAR(v, 0.0, 1e-15);
}

TEST(CartPoleTest, PoleFallsWithoutControl) {
  const sys::CartPole cp;
  Vec s = {0.0, 0.0, 0.05, 0.0};
  bool fell = false;
  for (int t = 0; t < 400 && !fell; ++t) {
    s = cp.step(s, {0.0}, {});
    fell = !cp.is_safe(s);
  }
  EXPECT_TRUE(fell);
  EXPECT_GT(s[2], 0.0);  // falls toward the initial tilt.
}

TEST(CartPoleTest, PushAcceleratesCart) {
  const sys::CartPole cp;
  const Vec next = cp.step({0.0, 0.0, 0.0, 0.0}, {5.0}, {});
  EXPECT_GT(next[1], 0.0);  // positive force -> positive cart acceleration.
  EXPECT_LT(next[3], 0.0);  // ...and the pole tips backward.
}

TEST(CartPoleTest, LinearizationMatchesFiniteDifference) {
  const sys::CartPole cp;
  la::Matrix a, b;
  cp.linearize(a, b);
  const double h = 1e-6;
  const Vec origin = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t j = 0; j < 4; ++j) {
    Vec sp = origin, sm = origin;
    sp[j] += h;
    sm[j] -= h;
    const Vec fp = cp.step(sp, {0.0}, {});
    const Vec fm = cp.step(sm, {0.0}, {});
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(a(i, j), (fp[i] - fm[i]) / (2.0 * h), 1e-5)
          << "A(" << i << "," << j << ")";
  }
  const Vec fp = cp.step(origin, {h}, {});
  const Vec fm = cp.step(origin, {-h}, {});
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(b(i, 0), (fp[i] - fm[i]) / (2.0 * h), 1e-5);
}

TEST(SystemBase, ClipControl) {
  const sys::VanDerPol vdp;
  EXPECT_EQ(vdp.clip_control({25.0}), (Vec{20.0}));
  EXPECT_EQ(vdp.clip_control({-25.0}), (Vec{-20.0}));
  EXPECT_EQ(vdp.clip_control({3.0}), (Vec{3.0}));
}

TEST(SystemBase, SampleInitialStateInsideX0) {
  util::Rng rng(3);
  for (const auto& name : sys::system_names()) {
    const auto system = sys::make_system(name);
    for (int k = 0; k < 50; ++k)
      EXPECT_TRUE(
          system->initial_set().contains(system->sample_initial_state(rng)));
  }
}

TEST(SystemBase, DisturbanceWithinBounds) {
  const sys::VanDerPol vdp;
  util::Rng rng(4);
  for (int k = 0; k < 200; ++k) {
    const Vec w = vdp.sample_disturbance(rng);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_LE(std::abs(w[0]), 0.05);
  }
  const sys::ThreeD sys3;
  EXPECT_TRUE(sys3.sample_disturbance(rng).empty());
}

TEST(Registry, BuildsAllPaperSystems) {
  EXPECT_EQ(sys::system_names().size(), 3u);
  for (const auto& name : sys::system_names())
    EXPECT_EQ(sys::make_system(name)->name(), name);
  EXPECT_THROW(sys::make_system("pendulum"), std::invalid_argument);
}

TEST(TemplatedDynamics, DoubleInstantiationMatchesVirtualStep) {
  const sys::VanDerPol vdp;
  const auto direct =
      sys::vanderpol_step<double>({0.5, -0.25}, 2.0, 0.01, 0.05);
  const Vec via_virtual = vdp.step({0.5, -0.25}, {2.0}, {0.01});
  EXPECT_DOUBLE_EQ(direct[0], via_virtual[0]);
  EXPECT_DOUBLE_EQ(direct[1], via_virtual[1]);
}

}  // namespace
}  // namespace cocktail
