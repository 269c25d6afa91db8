// Tests for reachable-set computation (Definition 2 / Fig 4): the verified
// flowpipe must contain simulated trajectories, detect safety, and fail
// cleanly on budget exhaustion.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "core/distiller.h"
#include "serial_run.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"
#include "verify/reach.h"

namespace cocktail {
namespace {

using la::Vec;
using testutil::pool_width;
using testutil::run_serially;
using verify::IBox;
using verify::Interval;

/// Small LQR-based linear controller as a cheap certified subject.
std::shared_ptr<ctrl::PolynomialController> threed_linear_controller() {
  const sys::ThreeD system;
  const auto lqr = ctrl::LqrController::synthesize(system, 1.0, 8.0);
  return std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(lqr.gain(), "lin"));
}

TEST(Reach, FlowpipeContainsSimulatedTrajectories) {
  auto system = std::make_shared<sys::ThreeD>();
  const auto controller = threed_linear_controller();
  verify::ReachConfig config;
  config.steps = 10;
  config.abstraction.epsilon_target = 0.2;
  const verify::ReachabilityAnalyzer analyzer(system, *controller, config);
  const IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});
  const auto result = analyzer.analyze(initial);
  ASSERT_TRUE(result.completed) << result.failure;
  ASSERT_EQ(result.layers.size(), 11u);

  // Property: simulated trajectories from the initial box stay inside the
  // per-step union of reach boxes.
  util::Rng rng(1);
  for (int traj = 0; traj < 25; ++traj) {
    Vec s(3);
    for (std::size_t d = 0; d < 3; ++d)
      s[d] = rng.uniform(initial[d].lo(), initial[d].hi());
    for (int t = 1; t <= 10; ++t) {
      s = system->step(s, system->clip_control(controller->act(s)), {});
      bool covered = false;
      for (const IBox& box : result.layers[t])
        covered = covered || verify::box_contains(box, s);
      ASSERT_TRUE(covered) << "trajectory " << traj << " escaped at step "
                           << t;
    }
  }
}

TEST(Reach, ReportsSafeForStabilizingController) {
  auto system = std::make_shared<sys::ThreeD>();
  const auto controller = threed_linear_controller();
  verify::ReachConfig config;
  config.steps = 15;  // the paper's Fig 4 horizon.
  config.abstraction.epsilon_target = 0.2;
  const verify::ReachabilityAnalyzer analyzer(system, *controller, config);
  const IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});
  const auto result = analyzer.analyze(initial);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.safe);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.nn_evaluations, 0);
}

TEST(Reach, DetectsUnsafeWithRunawayController) {
  // A destabilizing (positive-feedback) controller must push the flowpipe
  // out of X within a few steps.
  auto system = std::make_shared<sys::ThreeD>();
  la::Matrix k(1, 3);
  k(0, 2) = -40.0;  // u = +40 z: runaway in z.
  const auto runaway = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(k, "runaway"));
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.5;
  const verify::ReachabilityAnalyzer analyzer(system, *runaway, config);
  const IBox initial = verify::make_box({0.3, 0.3, 0.3}, {0.32, 0.32, 0.32});
  const auto result = analyzer.analyze(initial);
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.safe);
}

TEST(Reach, BudgetExhaustionIsCleanFailure) {
  auto system = std::make_shared<sys::ThreeD>();
  nn::Mlp net = nn::Mlp::make(3, {16, 16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 5);
  const ctrl::NnController big(std::move(net), {30.0}, "bigL");
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.05;
  config.abstraction.max_degree = 3;
  config.budget.max_nn_evaluations = 20'000;
  const verify::ReachabilityAnalyzer analyzer(system, big, config);
  const IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});
  const auto result = analyzer.analyze(initial);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.safe);
  EXPECT_FALSE(result.failure.empty());
}

void expect_same_reach(const verify::ReachResult& a,
                       const verify::ReachResult& b, int workers) {
  EXPECT_EQ(a.completed, b.completed) << workers << " workers";
  EXPECT_EQ(a.safe, b.safe) << workers << " workers";
  EXPECT_EQ(a.failure, b.failure) << workers << " workers";
  // Budget counters must be exact, not approximate: per-sub-box counters
  // merge in sweep order.
  EXPECT_EQ(a.nn_evaluations, b.nn_evaluations) << workers << " workers";
  EXPECT_EQ(a.partitions, b.partitions) << workers << " workers";
  ASSERT_EQ(a.layers.size(), b.layers.size()) << workers << " workers";
  for (std::size_t t = 0; t < a.layers.size(); ++t) {
    ASSERT_EQ(a.layers[t].size(), b.layers[t].size())
        << "layer " << t << ", " << workers << " workers";
    for (std::size_t k = 0; k < a.layers[t].size(); ++k)
      for (std::size_t d = 0; d < a.layers[t][k].size(); ++d) {
        ASSERT_EQ(a.layers[t][k][d].lo(), b.layers[t][k][d].lo())
            << "layer " << t << " box " << k << ", " << workers << " workers";
        ASSERT_EQ(a.layers[t][k][d].hi(), b.layers[t][k][d].hi())
            << "layer " << t << " box " << k << ", " << workers << " workers";
      }
  }
}

/// The analysis run serially on a pool worker, then on the shared pool.
std::pair<verify::ReachResult, verify::ReachResult> serial_and_shared(
    const verify::ReachabilityAnalyzer& analyzer, const IBox& initial) {
  auto serial = run_serially([&] { return analyzer.analyze(initial); });
  return {std::move(serial), analyzer.analyze(initial)};
}

TEST(Reach, SerialAndParallelSweepsAgreeExactly) {
  // Multi-box frontiers (small max_box_width forces subdivision) computed
  // serially and in parallel must agree on everything: flowpipe, safety,
  // and the exact budget counters.
  auto system = std::make_shared<sys::ThreeD>();
  const auto controller = threed_linear_controller();
  verify::ReachConfig config;
  config.steps = 6;
  config.abstraction.epsilon_target = 0.15;
  config.max_box_width = 0.03;
  const verify::ReachabilityAnalyzer analyzer(system, *controller, config);
  const IBox initial =
      verify::make_box({-0.14, 0.18, 0.08}, {-0.08, 0.24, 0.14});
  const auto [reference, parallel] = serial_and_shared(analyzer, initial);
  ASSERT_TRUE(reference.completed) << reference.failure;
  ASSERT_GT(reference.layers.back().size(), 8u)
      << "workload too small to exercise the parallel sweep";
  expect_same_reach(parallel, reference, pool_width());
}

TEST(Reach, BudgetExhaustionAgreesAcrossWorkerCounts) {
  // Exhaustion must fail identically — same counters, same failure text —
  // no matter how many workers swept the frontier.
  auto system = std::make_shared<sys::ThreeD>();
  nn::Mlp net = nn::Mlp::make(3, {16, 16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 5);
  const ctrl::NnController big(std::move(net), {30.0}, "bigL");
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.05;
  config.abstraction.max_degree = 3;
  config.budget.max_nn_evaluations = 20'000;
  const verify::ReachabilityAnalyzer analyzer(system, big, config);
  const IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});
  const auto [reference, parallel] = serial_and_shared(analyzer, initial);
  ASSERT_FALSE(reference.completed);
  expect_same_reach(parallel, reference, pool_width());
}

TEST(PaveBoxes, CoversAllInputBoxes) {
  // Property: every input box is contained in the union of output cells.
  util::Rng rng(21);
  std::vector<IBox> boxes;
  for (int k = 0; k < 40; ++k) {
    const double x = rng.uniform(-1.0, 1.0);
    const double y = rng.uniform(-1.0, 1.0);
    boxes.push_back(verify::make_box({x, y},
                                     {x + rng.uniform(0.0, 0.2),
                                      y + rng.uniform(0.0, 0.2)}));
  }
  const auto cells = verify::pave_boxes(boxes, 0.1);
  EXPECT_FALSE(cells.empty());
  // Sample points inside input boxes; each must be inside some cell.
  for (const IBox& box : boxes) {
    for (int k = 0; k < 10; ++k) {
      const la::Vec p = {rng.uniform(box[0].lo(), box[0].hi()),
                         rng.uniform(box[1].lo(), box[1].hi())};
      bool covered = false;
      for (const IBox& cell : cells)
        covered = covered || verify::box_contains(cell, p);
      ASSERT_TRUE(covered);
    }
  }
}

TEST(PaveBoxes, RespectsCellCap) {
  std::vector<IBox> boxes = {
      verify::make_box({0.0, 0.0}, {10.0, 10.0})};
  const auto cells = verify::pave_boxes(boxes, 0.01, /*max_cells=*/100);
  EXPECT_LE(cells.size(), 100u);
  EXPECT_FALSE(cells.empty());
}

TEST(PaveBoxes, MergesDuplicates) {
  // Many identical boxes collapse onto few cells.
  std::vector<IBox> boxes(50, verify::make_box({0.0, 0.0}, {0.05, 0.05}));
  const auto cells = verify::pave_boxes(boxes, 0.1);
  EXPECT_LE(cells.size(), 4u);
}

TEST(PaveBoxes, ThrowsOnInvalidResolution) {
  const std::vector<IBox> boxes = {verify::make_box({0.0}, {1.0})};
  EXPECT_THROW((void)verify::pave_boxes(boxes, 0.0), std::invalid_argument);
  EXPECT_THROW((void)verify::pave_boxes(boxes, -1.0), std::invalid_argument);
  EXPECT_THROW(
      (void)verify::pave_boxes(boxes, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)verify::pave_boxes(boxes, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(PaveBoxes, ThrowsOnNonFiniteBoxes) {
  IBox bad(2);
  bad[0] = {0.0, std::numeric_limits<double>::quiet_NaN()};
  bad[1] = {0.0, 1.0};
  EXPECT_THROW((void)verify::pave_boxes({bad}, 0.1), std::invalid_argument);
  bad[0] = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)verify::pave_boxes({bad}, 0.1), std::invalid_argument);
}

TEST(PaveBoxes, ExtremeHullDoesNotWrapCellCount) {
  // Regression: a hull of 2^32 resolution-sized cells per dimension used to
  // wrap the size_t cell product to zero in 2-D (2^64 ≡ 0), "pass" the cap,
  // and write through a zero-sized coverage grid.  The sizing must coarsen
  // instead.
  const std::vector<IBox> boxes = {
      verify::make_box({0.0, 0.0}, {4294967296.0, 4294967296.0})};
  const auto cells = verify::pave_boxes(boxes, 1.0, /*max_cells=*/50000);
  ASSERT_FALSE(cells.empty());
  EXPECT_LE(cells.size(), 50000u);
  // The coarsened paving still covers the hull corners.
  bool lo_covered = false, hi_covered = false;
  for (const IBox& cell : cells) {
    lo_covered = lo_covered || verify::box_contains(cell, {0.0, 0.0});
    hi_covered = hi_covered ||
                 verify::box_contains(cell, {4294967296.0, 4294967296.0});
  }
  EXPECT_TRUE(lo_covered);
  EXPECT_TRUE(hi_covered);
}

TEST(Reach, NanInitialBoxIsNeverSafe) {
  // Regression for the NaN-blind inside_safe_region: its exclusion-direction
  // comparisons were all false for NaN, so a corrupted enclosure fell
  // through as "safe" — the serve-path analogue of the
  // SafetyMonitor::certified NaN hole.  Fail closed instead.
  auto system = std::make_shared<sys::VanDerPol>();
  const ctrl::ZeroController zero(2, 1);
  verify::ReachConfig config;
  config.steps = 0;  // the verdict reduces to box_inside_region(initial).
  const verify::ReachabilityAnalyzer analyzer(system, zero, config);
  IBox initial = verify::make_box({0.1, 0.1}, {0.2, 0.2});
  initial[1] = {std::numeric_limits<double>::quiet_NaN(),
                std::numeric_limits<double>::quiet_NaN()};
  const auto result = analyzer.analyze(initial);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.safe) << "NaN enclosure certified as safe";
}

TEST(BoxInsideRegion, FailsClosedOnCorruptedBoxes) {
  // The predicate behind every layer's safety verdict.  A NaN, an Inf or an
  // inverted component certifies nothing, whatever the region.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const sys::Box wide = sys::Box::symmetric(2, 100.0);
  const sys::Box half(Vec{-2.0, -sys::Box::kUnbounded},
                      Vec{2.0, sys::Box::kUnbounded});
  IBox box = verify::make_box({0.0, 0.0}, {1.0, 1.0});
  EXPECT_TRUE(verify::box_inside_region(box, wide));
  for (const Interval bad : {Interval(kNan, kNan), Interval(0.0, kNan),
                             Interval(0.0, kInf), Interval(-kInf, 0.0),
                             Interval(1.0, 0.0)}) {
    box[1] = bad;
    EXPECT_FALSE(verify::box_inside_region(box, wide)) << bad.to_string();
    EXPECT_FALSE(verify::box_inside_region(box, half)) << bad.to_string();
  }
  // An unbounded region dimension passes any valid finite box...
  EXPECT_TRUE(verify::box_inside_region(
      verify::make_box({-1.0, -50.0}, {1.0, 50.0}), half));
  // ...while a bounded one still excludes.
  EXPECT_FALSE(verify::box_inside_region(
      verify::make_box({-1.0, -50.0}, {2.5, 50.0}), half));
  // A dimension mismatch fails.
  EXPECT_FALSE(verify::box_inside_region(verify::make_box({0.0}, {1.0}), wide));
}

TEST(Reach, SingleGiantBoxAgreesAcrossWorkerCounts) {
  // One giant initial box: its sub-box enclosures are the whole first
  // step's sweep, and they must stay bitwise identical for any worker
  // count.
  auto system = std::make_shared<sys::ThreeD>();
  const auto controller = threed_linear_controller();
  verify::ReachConfig config;
  config.steps = 2;
  config.abstraction.epsilon_target = 0.15;
  config.max_box_width = 0.06;  // 5^3 = 125 sub-boxes in the first step.
  const verify::ReachabilityAnalyzer analyzer(system, *controller, config);
  const IBox initial =
      verify::make_box({-0.25, 0.05, -0.05}, {0.05, 0.35, 0.25});
  const auto [reference, parallel] = serial_and_shared(analyzer, initial);
  ASSERT_TRUE(reference.completed) << reference.failure;
  ASSERT_GT(reference.layers[1].size(), 100u)
      << "workload too small to exercise the parallel sweep";
  expect_same_reach(parallel, reference, pool_width());
}

TEST(Reach, BudgetExhaustionStopsAtTheSerialPoint) {
  // A serial loop charges one partition per enclosure and stops at the
  // first one past the cap: the run must charge exactly cap + 1
  // partitions on any worker count, not a wave's worth more.
  auto system = std::make_shared<sys::ThreeD>();
  nn::Mlp net = nn::Mlp::make(3, {16, 16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 5);
  const ctrl::NnController big(std::move(net), {30.0}, "bigL");
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.05;
  config.abstraction.max_degree = 3;
  config.budget.max_nn_evaluations = std::numeric_limits<long>::max();
  const IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});
  for (const long cap : {1'000L, 3'000L}) {
    config.budget.max_partitions = cap;
    const verify::ReachabilityAnalyzer analyzer(system, big, config);
    const auto [serial, shared] = serial_and_shared(analyzer, initial);
    EXPECT_FALSE(serial.completed) << cap;
    EXPECT_EQ(serial.partitions, cap + 1) << cap;
    expect_same_reach(shared, serial, pool_width());
  }
}

TEST(Reach, MaxBoxesFailsBeforeAnyEnclosure) {
  // A step with more sub-boxes than max_boxes fails closed before it
  // abstracts a single one.  The ±1e8 box caps each dimension at 1e9
  // parts, and their product passes SIZE_MAX: the count must saturate, not
  // wrap or reach an allocation.
  auto system = std::make_shared<sys::ThreeD>();
  const ctrl::ZeroController zero(3, 1);
  verify::ReachConfig config;
  config.steps = 1;
  ASSERT_EQ(config.max_boxes, 20000u);
  const verify::ReachabilityAnalyzer analyzer(system, zero, config);
  for (const double r : {2.0, 1e8}) {  // ±2: 80^3 sub-boxes.
    SCOPED_TRACE(r);
    const auto result =
        analyzer.analyze(verify::make_box({-r, -r, -r}, {r, r, r}));
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(result.safe);
    EXPECT_EQ(result.failure,
              "reachable-set frontier exceeded max_boxes=20000");
    EXPECT_EQ(result.partitions, 0);
    EXPECT_EQ(result.nn_evaluations, 0);
  }
}

TEST(Reach, VanDerPolOneStepMatchesIntervalStep) {
  auto system = std::make_shared<sys::VanDerPol>();
  const ctrl::ZeroController zero(2, 1);
  verify::ReachConfig config;
  config.steps = 1;
  config.abstraction.epsilon_target = 1.0;
  config.max_box_width = 10.0;  // no subdivision.
  const verify::ReachabilityAnalyzer analyzer(system, zero, config);
  const IBox initial = verify::make_box({0.1, 0.1}, {0.2, 0.2});
  const auto result = analyzer.analyze(initial);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.layers[1].size(), 1u);
  // Zero controller => the image is the interval dynamics applied to the
  // initial box with u = 0 and full disturbance.
  const auto dynamics = verify::make_interval_dynamics(*system);
  const IBox expected = dynamics->step(initial, {Interval(0.0, 0.0)});
  const IBox& got = result.layers[1][0];
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(got[d].lo(), expected[d].lo(), 1e-6);
    EXPECT_NEAR(got[d].hi(), expected[d].hi(), 1e-6);
  }
}

}  // namespace
}  // namespace cocktail
