// Tests for the control-invariant-set computation (Definition 1 / Fig 3):
// the certified set must actually be invariant under simulation, shrink
// for weaker controllers, and respect the budget failure mode.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "serial_run.h"
#include "sys/registry.h"
#include "sys/vanderpol.h"
#include "verify/invariant.h"

namespace cocktail {
namespace {

using la::Vec;

std::shared_ptr<ctrl::PolynomialController> vdp_linear_controller(
    double control_weight) {
  const sys::VanDerPol system;
  const auto lqr = ctrl::LqrController::synthesize(system, 1.0, control_weight);
  return std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(lqr.gain(), "lin"));
}

verify::InvariantConfig small_config() {
  verify::InvariantConfig config;
  // 32x32 with eps=0.4 is the empirical sweet spot where an authoritative
  // LQR certifies ~80-90% of X but a weak one certifies nothing (the grid
  // cell width must be below the closed loop's one-step inward progress).
  config.grid = {32, 32};
  config.abstraction.epsilon_target = 0.4;
  return config;
}

TEST(Invariant, NonEmptyForStabilizingController) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const verify::InvariantSetComputer computer(system, *controller,
                                              small_config());
  const auto result = computer.compute();
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_GT(result.volume_fraction, 0.1);
  EXPECT_LE(result.volume_fraction, 1.0);
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Invariant, CertifiedSetIsActuallyInvariant) {
  // The defining property (Definition 1): simulate from inside XI under
  // worst-case-ish disturbances; trajectories must never leave X, ever.
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const verify::InvariantSetComputer computer(system, *controller,
                                              small_config());
  const auto result = computer.compute();
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.volume_fraction, 0.1);
  const sys::Box domain = system->safe_region();

  util::Rng rng(3);
  int tested = 0;
  for (int attempt = 0; attempt < 3000 && tested < 40; ++attempt) {
    const Vec s0 = domain.sample(rng);
    if (!result.contains(domain, s0)) continue;
    ++tested;
    Vec s = s0;
    for (int t = 0; t < 300; ++t) {
      const Vec u = system->clip_control(controller->act(s));
      s = system->step(s, u, system->sample_disturbance(rng));
      ASSERT_TRUE(system->is_safe(s))
          << "left X from certified cell, start (" << s0[0] << ", " << s0[1]
          << ") step " << t;
    }
  }
  EXPECT_GE(tested, 10);
}

TEST(Invariant, StrongerControllerYieldsLargerSet) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto strong = vdp_linear_controller(0.02);  // high authority.
  const auto weak = vdp_linear_controller(0.1);     // lower authority.
  const auto r_strong =
      verify::InvariantSetComputer(system, *strong, small_config()).compute();
  const auto r_weak =
      verify::InvariantSetComputer(system, *weak, small_config()).compute();
  ASSERT_TRUE(r_strong.completed);
  ASSERT_TRUE(r_weak.completed);
  EXPECT_GE(r_strong.volume_fraction, r_weak.volume_fraction);
}

TEST(Invariant, BudgetExhaustionReportedNotThrown) {
  // The report must also stop exactly where a serial sweep does: cells
  // abstracted in index order against one budget, stopping at the first
  // partition that exhausts it.  The second cap runs out more than one
  // 64-cell sweep window in.
  auto system = std::make_shared<sys::VanDerPol>();
  nn::Mlp net = nn::Mlp::make(2, {16, 16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 4);
  const ctrl::NnController big(std::move(net), {40.0}, "bigL");
  verify::InvariantConfig config = small_config();
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 3;
  const sys::Box domain = system->safe_region();
  const verify::IBox u_bounds = verify::make_box(
      system->control_bounds().lo, system->control_bounds().hi);
  for (const long cap : {5'000L, 400'000L}) {
    SCOPED_TRACE(cap);
    config.budget.max_nn_evaluations = cap;
    const verify::InvariantSetComputer computer(system, big, config);
    const auto result = computer.compute();
    EXPECT_FALSE(result.completed);
    EXPECT_FALSE(result.failure.empty());

    const verify::NnAbstraction abstraction(big, config.abstraction);
    verify::VerificationBudget budget = config.budget;
    std::string failure;
    try {
      for (std::size_t i = 0; i < result.cell_count(); ++i)
        (void)abstraction.enclose(result.cell_box(domain, i), u_bounds,
                                  budget);
    } catch (const verify::BudgetExhausted& e) {
      failure = e.what();
    }
    EXPECT_EQ(result.failure, failure);
    EXPECT_EQ(result.nn_evaluations, budget.nn_evaluations);
    EXPECT_EQ(result.partitions, budget.partitions);
  }
}

/// Returns NaN everywhere while claiming a Lipschitz bound of 0.
class NanController final : public ctrl::Controller {
 public:
  [[nodiscard]] Vec act(const Vec&) const override { return {std::nan("")}; }
  [[nodiscard]] std::size_t state_dim() const override { return 2; }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "nan"; }
  [[nodiscard]] double lipschitz_bound() const override { return 0.0; }
};

TEST(Invariant, NanCellImagesFailClosed) {
  // NaN controls give NaN cell images.  A NaN endpoint passes the
  // exclusion test against the domain, so the grid lookup must reject it
  // before casting floor(NaN) to int (UB, reported by
  // -fsanitize=float-cast-overflow): every cell leaves the set.
  auto system = std::make_shared<sys::VanDerPol>();
  const NanController nan_controller;
  verify::InvariantConfig config = small_config();
  config.grid = {20, 20};
  const auto result =
      verify::InvariantSetComputer(system, nan_controller, config).compute();
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(result.volume_fraction, 0.0);
}

TEST(Invariant, ParallelSweepMatchesSerial) {
  // Run from a pool worker, compute()'s nested parallel_for runs inline:
  // the serial sweep.  From the test thread it fans out over the shared
  // pool.  A completing run and a budget failure must agree on every
  // field but the wall time.
  auto system = std::make_shared<sys::VanDerPol>();
  const ctrl::NnController small(
      nn::Mlp::make(2, {16, 16}, 1, nn::Activation::kTanh,
                    nn::Activation::kIdentity, 4),
      {1.0}, "smallL");
  const ctrl::NnController big(
      nn::Mlp::make(2, {16, 16}, 1, nn::Activation::kTanh,
                    nn::Activation::kIdentity, 4),
      {40.0}, "bigL");
  verify::InvariantConfig failing = small_config();
  failing.abstraction.epsilon_target = 0.1;
  failing.abstraction.max_degree = 3;
  failing.budget.max_nn_evaluations = 5'000;
  const std::pair<const ctrl::NnController*, verify::InvariantConfig> runs[] =
      {{&small, small_config()}, {&big, failing}};
  for (const auto& [controller, config] : runs) {
    const verify::InvariantSetComputer computer(system, *controller, config);
    const auto parallel = computer.compute();
    const auto serial =
        testutil::run_serially([&] { return computer.compute(); });
    SCOPED_TRACE(controller->describe());
    EXPECT_EQ(parallel.completed, serial.completed);
    EXPECT_EQ(parallel.failure, serial.failure);
    EXPECT_EQ(parallel.member, serial.member);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.volume_fraction, serial.volume_fraction);
    EXPECT_EQ(parallel.nn_evaluations, serial.nn_evaluations);
    EXPECT_EQ(parallel.partitions, serial.partitions);
  }
}

TEST(Invariant, RejectsUnboundedDomains) {
  auto cartpole = sys::make_system("cartpole");
  const ctrl::ZeroController zero(4, 1);
  EXPECT_THROW(
      verify::InvariantSetComputer(cartpole, zero, small_config()),
      std::invalid_argument);
}

TEST(Invariant, RejectsGridArityMismatch) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  verify::InvariantConfig config = small_config();
  config.grid = {32, 32, 32};
  EXPECT_THROW(verify::InvariantSetComputer(system, *controller, config),
               std::invalid_argument);
}

TEST(Invariant, RejectsEmptyNegativeAndOverflowingGrids) {
  // A zero cell count used to certify an empty grid as completed with a
  // NaN volume, and a negative one threw std::length_error from the member
  // mask; a cell product past size_t would wrap.  All fail at construction.
  auto vdp = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  for (const std::vector<int>& grid :
       {std::vector<int>{0, 8}, std::vector<int>{8, 0},
        std::vector<int>{-1, 8}, std::vector<int>{8, -40}}) {
    verify::InvariantConfig config = small_config();
    config.grid = grid;
    EXPECT_THROW(verify::InvariantSetComputer(vdp, *controller, config),
                 std::invalid_argument)
        << grid[0] << " x " << grid[1];
  }
  auto threed = sys::make_system("threed");
  const ctrl::ZeroController zero(3, 1);
  verify::InvariantConfig config = small_config();
  const int huge = std::numeric_limits<int>::max();
  config.grid = {huge, huge, huge};
  EXPECT_THROW(verify::InvariantSetComputer(threed, zero, config),
               std::invalid_argument);
  config.grid = {2, 3, 4};  // the same system and controller are accepted.
  EXPECT_NO_THROW(verify::InvariantSetComputer(threed, zero, config));
}

TEST(Invariant, ContainsAgreesWithMembership) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const auto result =
      verify::InvariantSetComputer(system, *controller, small_config())
          .compute();
  ASSERT_TRUE(result.completed);
  const sys::Box domain = system->safe_region();
  // Points outside the domain are never members.
  EXPECT_FALSE(result.contains(domain, {5.0, 0.0}));
  // Cell centers agree with the member mask.
  for (std::size_t i = 0; i < result.cell_count(); i += 37) {
    const auto box = result.cell_box(domain, i);
    const la::Vec center = verify::box_mid(box);
    EXPECT_EQ(result.contains(domain, center), result.member[i]);
  }
}

}  // namespace
}  // namespace cocktail
