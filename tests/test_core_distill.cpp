// Tests for the robust distiller (Algorithm 1 lines 11-15): dataset
// construction, regression quality, and the paper's two key claims —
// L2 + FGSM training shrinks the student's Lipschitz constant, and the
// robust student deviates less under input perturbations.
#include <gtest/gtest.h>

#include <cmath>

#include "control/lqr_controller.h"
#include "core/distiller.h"
#include "rl_test_common.h"
#include "serial_run.h"
#include "sys/vanderpol.h"

namespace cocktail {
namespace {

using la::Vec;
using testutil::expect_same_net;
using testutil::pool_width;
using testutil::run_serially;

core::DistillConfig tiny_config() {
  core::DistillConfig config;
  config.teacher_rollouts = 5;
  config.uniform_samples = 600;
  config.student_hidden = {16, 16};
  config.epochs = 60;
  config.seed = 42;
  return config;
}

TEST(DistillDataset, ContainsRolloutAndUniformSamples) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  const auto config = tiny_config();
  const auto data = core::build_distill_dataset(vdp, lqr, config);
  EXPECT_GE(data.size(), static_cast<std::size_t>(config.uniform_samples));
  ASSERT_EQ(data.states.size(), data.controls.size());
  // Labels must be clipped teacher outputs.
  for (std::size_t i = 0; i < data.size(); i += 50) {
    const Vec expected = vdp.clip_control(lqr.act(data.states[i]));
    EXPECT_NEAR(data.controls[i][0], expected[0], 1e-9);
  }
}

TEST(DistillDataset, StatesInsideSamplingRegion) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  const auto data = core::build_distill_dataset(vdp, lqr, tiny_config());
  const sys::Box region = vdp.sampling_region();
  std::size_t inside = 0;
  for (const auto& s : data.states) inside += region.contains(s);
  // Rollout states stay in X (teacher is stabilizing); uniform ones are in
  // the region by construction.
  EXPECT_EQ(inside, data.size());
}

TEST(Distill, StudentTracksTeacher) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  const auto result = core::distill(vdp, lqr, tiny_config(), "student");
  EXPECT_LT(result.final_loss, 0.5);  // u ranges over [-20, 20]: MSE 0.5 is ~1% RMS.
  // Check pointwise agreement on fresh states.
  util::Rng rng(7);
  double max_err = 0.0;
  for (int k = 0; k < 200; ++k) {
    const Vec s = vdp.sampling_region().sample(rng);
    const double u_teacher = vdp.clip_control(lqr.act(s))[0];
    const double u_student = result.student->act(s)[0];
    max_err = std::max(max_err, std::abs(u_teacher - u_student));
  }
  EXPECT_LT(max_err, 4.0);  // 10% of the control range.
}

TEST(Distill, DirectConfigDisablesRobustness) {
  const auto config = tiny_config();
  const auto direct = config.direct();
  EXPECT_EQ(direct.adversarial_prob, 0.0);
  EXPECT_EQ(direct.lambda_l2, 0.0);
  EXPECT_EQ(direct.epochs, config.epochs);
}

TEST(Distill, RobustStudentHasSmallerLipschitz) {
  // The paper's central distillation claim (Table I: L(κ*) < L(κD)).
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  auto config = tiny_config();
  config.lambda_l2 = 1e-3;
  config.adversarial_prob = 0.5;
  const auto robust = core::distill(vdp, lqr, config, "kstar");
  const auto direct = core::distill(vdp, lqr, config.direct(), "kD");
  EXPECT_LT(robust.lipschitz, direct.lipschitz);
}

TEST(Distill, RobustStudentDeviatesLessUnderPerturbation) {
  // Robustness claim behind Table II: same-size input perturbations change
  // κ*'s output less than κD's.
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  auto config = tiny_config();
  config.lambda_l2 = 1e-3;
  const auto robust = core::distill(vdp, lqr, config, "kstar");
  const auto direct = core::distill(vdp, lqr, config.direct(), "kD");
  util::Rng rng(9);
  double dev_robust = 0.0, dev_direct = 0.0;
  for (int k = 0; k < 300; ++k) {
    const Vec s = vdp.sampling_region().sample(rng);
    Vec delta = {rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)};
    const Vec sp = la::add(s, delta);
    dev_robust += std::abs(robust.student->act(sp)[0] -
                           robust.student->act(s)[0]);
    dev_direct += std::abs(direct.student->act(sp)[0] -
                           direct.student->act(s)[0]);
  }
  EXPECT_LT(dev_robust, dev_direct);
}

TEST(Distill, SpectralProjectionBoundsCertifiedL) {
  // Extension knob (Pauli et al. [19]): with a per-layer spectral cap c,
  // d layers, and output scaling |U| = 20, the certified Lipschitz product
  // is at most 20·c^d.
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  auto config = tiny_config();
  config.lambda_l2 = 0.0;
  config.spectral_norm_cap = 3.0;
  const auto result = core::distill(vdp, lqr, config, "projected");
  // Student has 3 layers (2 hidden): L <= 20 * 3^3 (+ spectral-norm slack).
  EXPECT_LE(result.lipschitz, 20.0 * 27.0 * 1.05);
  // And it must still track the teacher reasonably (normalized loss).
  EXPECT_LT(result.final_loss, 0.05);
}

TEST(Distill, ProjectionTighterThanUnregularized) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  auto config = tiny_config();
  config.lambda_l2 = 0.0;
  const auto plain = core::distill(vdp, lqr, config, "plain");
  // Pick a cap below the unregularized per-layer norms so it must bind.
  config.spectral_norm_cap = 1.0;
  const auto projected = core::distill(vdp, lqr, config, "projected");
  EXPECT_LT(projected.lipschitz, plain.lipschitz);
  EXPECT_LE(projected.lipschitz, 20.0 * std::pow(1.0, 3.0) * 1.05);
}

TEST(DistillDataset, BitwiseIdenticalForAnyWorkerCount) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  const auto build = [&] {
    return core::build_distill_dataset(vdp, lqr, tiny_config());
  };
  const auto reference = run_serially(build);
  const auto data = build();
  const int workers = pool_width();
  ASSERT_EQ(data.size(), reference.size()) << workers << " workers";
  EXPECT_EQ(data.states, reference.states) << workers << " workers";
  EXPECT_EQ(data.controls, reference.controls) << workers << " workers";
}

TEST(Distill, BitwiseIdenticalForAnyWorkerCount) {
  // The whole-pipeline determinism claim: per-rollout RNG streams for the
  // dataset plus the fixed-order gradient reduction make the trained
  // student bitwise identical for any pool width.
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  auto config = tiny_config();
  config.epochs = 12;  // enough steps for any divergence to compound.
  const auto reference =
      run_serially([&] { return core::distill(vdp, lqr, config, "serial"); });
  const auto parallel = core::distill(vdp, lqr, config, "parallel");
  const int workers = pool_width();
  expect_same_net(parallel.student->net(), reference.student->net(), workers);
  EXPECT_EQ(parallel.final_loss, reference.final_loss)
      << workers << " workers";
  EXPECT_EQ(parallel.lipschitz, reference.lipschitz) << workers << " workers";
}

TEST(Distill, DeterministicForFixedSeed) {
  const sys::VanDerPol vdp;
  const auto lqr = ctrl::LqrController::synthesize(vdp, 1.0, 0.5);
  const auto a = core::distill(vdp, lqr, tiny_config(), "s1");
  const auto b = core::distill(vdp, lqr, tiny_config(), "s2");
  EXPECT_DOUBLE_EQ(a.student->act({0.3, -0.3})[0],
                   b.student->act({0.3, -0.3})[0]);
}

}  // namespace
}  // namespace cocktail
