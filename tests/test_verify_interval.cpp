// Unit + property tests for interval arithmetic: every operation's result
// must contain the pointwise result for sampled members (inclusion
// property), plus box utilities and the interval-instantiated dynamics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sys/cartpole.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"
#include "util/rng.h"
#include "verify/interval.h"
#include "verify/interval_dynamics.h"

namespace cocktail {
namespace {

using verify::IBox;
using verify::Interval;

/// The widest side of a box.
double box_max_width(const IBox& box) {
  double w = 0.0;
  for (const auto& iv : box) w = std::max(w, iv.width());
  return w;
}

/// True when every side of `inner` lies in the same side of `outer`.
bool box_contains_box(const IBox& outer, const IBox& inner) {
  if (outer.size() != inner.size())
    throw std::invalid_argument("box_contains_box: dimension mismatch");
  for (std::size_t i = 0; i < outer.size(); ++i)
    if (!outer[i].contains(inner[i])) return false;
  return true;
}

TEST(IntervalOps, BasicArithmetic) {
  const Interval a(1.0, 2.0), b(-1.0, 3.0);
  EXPECT_LE((a + b).lo(), 0.0);
  EXPECT_GE((a + b).hi(), 5.0);
  EXPECT_LE((a - b).lo(), -2.0);
  EXPECT_GE((a - b).hi(), 3.0);
  EXPECT_LE((a * b).lo(), -2.0);
  EXPECT_GE((a * b).hi(), 6.0);
}

TEST(IntervalOps, SquareIsNonNegativeAndTight) {
  const Interval x(-2.0, 1.0);
  const Interval sq = x.square();
  EXPECT_GE(sq.lo(), -1e-9);
  EXPECT_GE(sq.hi(), 4.0);
  EXPECT_LE(sq.hi(), 4.0 + 1e-9);
  // Naive x*x is looser: [-2, 4]; square() must be tighter at the bottom.
  EXPECT_GT(sq.lo(), (x * x).lo() + 1.0);
}

TEST(IntervalOps, DivisionByIntervalContainingZeroThrows) {
  EXPECT_THROW((void)(Interval(1.0, 2.0) / Interval(-1.0, 1.0)),
               std::domain_error);
}

TEST(IntervalOps, ClampTo) {
  const Interval x(-3.0, 5.0);
  const Interval clamped = x.clamp_to({-1.0, 1.0});
  EXPECT_DOUBLE_EQ(clamped.lo(), -1.0);
  EXPECT_DOUBLE_EQ(clamped.hi(), 1.0);
  // Entirely-outside interval collapses onto the boundary.
  const Interval outside = Interval(5.0, 7.0).clamp_to({-1.0, 1.0});
  EXPECT_DOUBLE_EQ(outside.lo(), 1.0);
  EXPECT_DOUBLE_EQ(outside.hi(), 1.0);
}

class IntervalInclusion : public ::testing::TestWithParam<int> {};

TEST_P(IntervalInclusion, OperationsContainSampledResults) {
  util::Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const double a_lo = rng.uniform(-3.0, 3.0);
    const Interval a(a_lo, a_lo + rng.uniform(0.0, 2.0));
    const double b_lo = rng.uniform(-3.0, 3.0);
    const Interval b(b_lo, b_lo + rng.uniform(0.0, 2.0));
    const double x = rng.uniform(a.lo(), a.hi());
    const double y = rng.uniform(b.lo(), b.hi());
    EXPECT_TRUE((a + b).contains(x + y));
    EXPECT_TRUE((a - b).contains(x - y));
    EXPECT_TRUE((a * b).contains(x * y));
    EXPECT_TRUE(a.square().contains(x * x));
    EXPECT_TRUE((a * 2.5).contains(x * 2.5));
    EXPECT_TRUE((a * -1.5).contains(x * -1.5));
    EXPECT_TRUE(verify::sin(a).contains(std::sin(x)));
    EXPECT_TRUE(verify::cos(a).contains(std::cos(x)));
    if (!b.contains(0.0)) {
      EXPECT_TRUE((a / b).contains(x / y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalInclusion, ::testing::Range(0, 8));

// --- non-finite edge contract (see the class comment in interval.h) --------

TEST(IntervalEdgeContract, NanEndpointsFailClosed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Interval& broken :
       {Interval(nan), Interval(nan, 1.0), Interval(-1.0, nan),
        Interval(nan, nan)}) {
    EXPECT_FALSE(broken.valid());
    // A broken interval certifies nothing: no member, no enclosure, no
    // intersection — in both argument positions.
    EXPECT_FALSE(broken.contains(0.0));
    EXPECT_FALSE(broken.contains(Interval(0.0)));
    EXPECT_FALSE(broken.intersects(Interval(-10.0, 10.0)));
    EXPECT_FALSE(Interval(-10.0, 10.0).contains(broken));
    EXPECT_FALSE(Interval(-10.0, 10.0).intersects(broken));
  }
  // A NaN query point is never a member of a healthy interval either.
  EXPECT_FALSE(Interval(-1.0, 1.0).contains(nan));
}

TEST(IntervalEdgeContract, InfiniteEndpointsAreMeaningful) {
  // Unbounded safe-region dimensions use ±inf endpoints; the predicates
  // must keep working there (this is why the accepting-direction
  // comparisons carry waivers instead of isfinite guards).
  const double inf = std::numeric_limits<double>::infinity();
  const Interval half_line(0.0, inf);
  EXPECT_TRUE(half_line.valid());
  EXPECT_TRUE(half_line.contains(1e300));
  EXPECT_TRUE(half_line.contains(Interval(5.0, 1e18)));
  EXPECT_FALSE(half_line.contains(-1.0));
  const Interval everything(-inf, inf);
  EXPECT_TRUE(everything.contains(half_line));
  EXPECT_TRUE(everything.intersects(Interval(-3.0, -2.0)));
}

TEST(IntervalEdgeContract, OperationsOnValidInputsNeverShrinkContainment) {
  // Property: for valid finite operands, each op's enclosure contains the
  // exact rational-arithmetic endpoints (spot-checked via the operand
  // endpoints themselves, which every op's image must cover).
  util::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const double a_lo = rng.uniform(-1e3, 1e3);
    const Interval a(a_lo, a_lo + rng.uniform(0.0, 10.0));
    const double b_lo = rng.uniform(-1e3, 1e3);
    const Interval b(b_lo, b_lo + rng.uniform(0.0, 10.0));
    EXPECT_TRUE((a + b).contains(a.lo() + b.lo()));
    EXPECT_TRUE((a + b).contains(a.hi() + b.hi()));
    EXPECT_TRUE((a - b).contains(a.lo() - b.hi()));
    EXPECT_TRUE((a * b).contains(a.lo() * b.lo()));
    EXPECT_TRUE((a * b).contains(a.hi() * b.hi()));
    EXPECT_TRUE(a.inflate(0.5).contains(a.lo() - 0.5));
    EXPECT_TRUE(a.inflate(0.5).contains(a.hi() + 0.5));
    EXPECT_TRUE(a.square().contains(a.lo() * a.lo()));
  }
}

TEST(IntervalEdgeContract, NanProducingOperationsFailClosed) {
  // 0 * inf and inf - inf are NaN; intervals built from them must report
  // !valid() and certify nothing — never collapse to a tight finite bound.
  const double inf = std::numeric_limits<double>::infinity();
  const Interval nan_product = Interval(0.0) * Interval(inf);
  EXPECT_FALSE(nan_product.valid());
  EXPECT_FALSE(nan_product.contains(0.0));
  const Interval nan_difference = Interval(inf) - Interval(inf);
  EXPECT_FALSE(nan_difference.valid());
  EXPECT_FALSE(nan_difference.contains(0.0));
  // An honestly unbounded result stays unbounded, not NaN: [0,inf] - [0,inf]
  // spans every real difference.
  const Interval unbounded(0.0, inf);
  const Interval spread = unbounded - unbounded;
  EXPECT_TRUE(spread.valid());
  EXPECT_TRUE(spread.contains(12345.6789));
  EXPECT_TRUE(spread.contains(-12345.6789));
}

TEST(IntervalTrig, SinCoversExtremaInsideWindow) {
  // [0, pi] contains the max of sin.
  const Interval s = verify::sin(Interval(0.0, 3.2));
  EXPECT_GE(s.hi(), 1.0);
  EXPECT_LE(s.lo(), 0.0 + 1e-9);
  // Wide interval -> [-1, 1].
  const Interval wide = verify::sin(Interval(-10.0, 10.0));
  EXPECT_DOUBLE_EQ(wide.lo(), -1.0);
  EXPECT_DOUBLE_EQ(wide.hi(), 1.0);
}

TEST(BoxUtils, MakeAndQuery) {
  const IBox box = verify::make_box({-1.0, 0.0}, {1.0, 2.0});
  EXPECT_TRUE(verify::box_contains(box, {0.0, 1.0}));
  EXPECT_FALSE(verify::box_contains(box, {0.0, 2.5}));
  EXPECT_DOUBLE_EQ(box_max_width(box), 2.0);
  EXPECT_EQ(verify::box_mid(box), (la::Vec{0.0, 1.0}));
}

TEST(BoxUtils, BisectSplitsWidestDimension) {
  const IBox box = verify::make_box({0.0, 0.0}, {1.0, 4.0});
  const auto [left, right] = verify::box_bisect(box);
  EXPECT_DOUBLE_EQ(left[1].hi(), 2.0);
  EXPECT_DOUBLE_EQ(right[1].lo(), 2.0);
  EXPECT_DOUBLE_EQ(left[0].hi(), 1.0);  // dim 0 untouched.
}

TEST(BoxUtils, SubdivideTilesTheBox) {
  const IBox box = verify::make_box({0.0, 0.0}, {1.0, 1.0});
  const auto parts = verify::box_subdivide(box, {2, 3});
  EXPECT_EQ(parts.size(), 6u);
  // Property: every sampled point of the box lies in exactly one part.
  util::Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const la::Vec p = {rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999)};
    int hits = 0;
    for (const auto& part : parts) hits += verify::box_contains(part, p);
    EXPECT_GE(hits, 1);
    EXPECT_LE(hits, 2);  // boundary points may be shared.
  }
}

TEST(BoxUtils, SubdivideFacesPinParentEndpointsExactly) {
  // `lo + parts * w` can round strictly below `hi`, which used to leave an
  // uncovered sliver at the top face.  slice_face pins the extreme faces to
  // the exact parent endpoints and shares interior faces bitwise between
  // adjacent slices, so the union covers the parent with no gaps.
  const IBox box = verify::make_box({0.1}, {0.9});
  const auto parts = verify::box_subdivide(box, {7});
  ASSERT_EQ(parts.size(), 7u);
  EXPECT_EQ(parts.front()[0].lo(), 0.1);  // exact, not approximate.
  EXPECT_EQ(parts.back()[0].hi(), 0.9);
  for (std::size_t k = 0; k + 1 < parts.size(); ++k)
    EXPECT_EQ(parts[k][0].hi(), parts[k + 1][0].lo());  // shared bitwise.
}

TEST(BoxUtils, SubdivideRejectsAWrappingPartCount) {
  // 2^21 * 2^21 * 2^22 = 2^64 used to wrap size_t to 0 and return no
  // sub-boxes at all, so the "subdivision" no longer covered the box.
  const IBox box = verify::make_box({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  EXPECT_THROW(
      (void)verify::box_subdivide(box, {1 << 21, 1 << 21, 1 << 22}),
      std::invalid_argument);
}

TEST(BoxUtils, SubdivideAtBuildsEachSubBoxAlone) {
  const IBox box = verify::make_box({-1.0, 0.0, 2.0}, {1.0, 0.3, 2.5});
  const std::vector<int> parts_per_dim = {3, 1, 4};
  const auto parts = verify::box_subdivide(box, parts_per_dim);
  ASSERT_EQ(parts.size(), 12u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const IBox sub = verify::box_subdivide_at(box, parts_per_dim, i);
    for (std::size_t d = 0; d < box.size(); ++d) {
      EXPECT_EQ(sub[d].lo(), parts[i][d].lo()) << i;
      EXPECT_EQ(sub[d].hi(), parts[i][d].hi()) << i;
    }
  }
  EXPECT_THROW((void)verify::box_subdivide_at(box, parts_per_dim, 12),
               std::invalid_argument);
  EXPECT_THROW((void)verify::box_subdivide_at(box, {3, 1}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)verify::box_subdivide_at(box, {3, 0, 4}, 0),
               std::invalid_argument);
}

TEST(BoxUtils, HullContainsBoth) {
  const IBox a = verify::make_box({0.0}, {1.0});
  const IBox b = verify::make_box({2.0}, {3.0});
  const IBox h = verify::box_hull(a, b);
  EXPECT_TRUE(box_contains_box(h, a));
  EXPECT_TRUE(box_contains_box(h, b));
}

/// Property shared by all three plants: the interval image of a box
/// contains the concrete image of sampled (state, control, disturbance).
template <typename SystemT>
void check_dynamics_inclusion(const SystemT& system, std::uint64_t seed) {
  const auto dynamics = verify::make_interval_dynamics(system);
  util::Rng rng(seed);
  const sys::Box region = system.sampling_region();
  for (int trial = 0; trial < 30; ++trial) {
    // Random sub-box of the sampling region.
    la::Vec lo(region.dim()), hi(region.dim());
    for (std::size_t d = 0; d < region.dim(); ++d) {
      const double a = rng.uniform(region.lo[d], region.hi[d]);
      const double b = rng.uniform(region.lo[d], region.hi[d]);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const IBox state_box = verify::make_box(lo, hi);
    const sys::Box u_bounds = system.control_bounds();
    const double u_lo = rng.uniform(u_bounds.lo[0], u_bounds.hi[0]);
    const double u_hi = rng.uniform(u_lo, u_bounds.hi[0]);
    const IBox image = dynamics->step(state_box, {Interval(u_lo, u_hi)});
    for (int k = 0; k < 20; ++k) {
      la::Vec s(region.dim());
      for (std::size_t d = 0; d < region.dim(); ++d)
        s[d] = rng.uniform(lo[d], hi[d]);
      const la::Vec u = {rng.uniform(u_lo, u_hi)};
      const la::Vec w = system.sample_disturbance(rng);
      const la::Vec next = system.step(s, u, w);
      EXPECT_TRUE(verify::box_contains(image, next))
          << system.name() << " trial " << trial;
    }
  }
}

TEST(IntervalDynamics, VanDerPolInclusion) {
  check_dynamics_inclusion(sys::VanDerPol(), 11);
}

TEST(IntervalDynamics, ThreeDInclusion) {
  check_dynamics_inclusion(sys::ThreeD(), 12);
}

TEST(IntervalDynamics, CartPoleInclusion) {
  check_dynamics_inclusion(sys::CartPole(), 13);
}

TEST(IntervalDynamics, PointBoxReproducesSimulatorStep) {
  const sys::ThreeD system;
  const auto dynamics = verify::make_interval_dynamics(system);
  const la::Vec s = {0.1, -0.2, 0.3};
  const la::Vec u = {1.5};
  const IBox image = dynamics->step(verify::point_box(s), {Interval(1.5)});
  const la::Vec next = system.step(s, u, {});
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_LE(image[d].lo(), next[d]);
    EXPECT_GE(image[d].hi(), next[d]);
    EXPECT_LT(image[d].width(), 1e-9);  // essentially a point.
  }
}

}  // namespace
}  // namespace cocktail
