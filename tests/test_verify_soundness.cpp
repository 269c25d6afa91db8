// Soundness oracle for the verifier: every abstract result must contain
// what concrete execution does.
//
//  * Cone: κ(x) = u₀ − L·‖x − c‖₂ has certified Lipschitz bound exactly L
//    and its peak at c.  With c at the centre of a sample-grid cell — the
//    point farthest from every sample — the enclosure's top must reach
//    κ(c) and overshoot it by no more than outward rounding: the covering
//    radius is both sound and tight, so a shrunken radius fails here.
//  * Trained subjects: the four committed perfbench students under the
//    Bernstein, IBP and hybrid engines.  act(x) and the act_batch rows must
//    lie inside the enclosure at uniform points, at sample-cell centres,
//    and at the end of projected gradient ascent and descent.
//  * Reachability (Definition 2): concrete closed-loop trajectories of the
//    3D system stay in ∪ layers[t] at every step t.
//  * Invariant sets (Definition 1): Van der Pol states in XI stay in XI
//    after one step under any sampled disturbance in Ω.
//
// Seeds are fixed, so any failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "control/nn_controller.h"
#include "sys/registry.h"
#include "util/rng.h"
#include "verify/bernstein.h"
#include "verify/invariant.h"
#include "verify/nn_abstraction.h"
#include "verify/reach.h"
#include "verify/tolerances.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::AbstractionMethod;
using verify::IBox;
using verify::Interval;

// --- cone: the covering radius is tight -------------------------------------

/// κ(x) = peak − L·‖x − apex‖₂.
class ConeController final : public ctrl::Controller {
 public:
  ConeController(Vec apex, double peak, double lipschitz)
      : apex_(std::move(apex)), peak_(peak), lipschitz_(lipschitz) {}
  [[nodiscard]] Vec act(const Vec& s) const override {
    double squares = 0.0;
    for (std::size_t i = 0; i < apex_.size(); ++i)
      squares += (s[i] - apex_[i]) * (s[i] - apex_[i]);
    return {peak_ - lipschitz_ * std::sqrt(squares)};
  }
  [[nodiscard]] std::size_t state_dim() const override { return apex_.size(); }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "cone"; }
  [[nodiscard]] double lipschitz_bound() const override { return lipschitz_; }

 private:
  Vec apex_;
  double peak_;
  double lipschitz_;
};

class ConeOracle : public ::testing::TestWithParam<int> {};

TEST_P(ConeOracle, EnclosureTopMeetsThePeakAtACellCentre) {
  const std::vector<IBox> boxes = {
      verify::make_box({-0.3}, {0.9}),
      verify::make_box({-1.0, 0.2}, {0.5, 0.35}),
      verify::make_box({0.0, -0.1, 1.0}, {2.0, 0.1, 1.5}),
      verify::make_box({-0.5, 0.0, -0.05, 2.0}, {0.5, 3.0, 0.05, 2.4})};
  const IBox& box = boxes[static_cast<std::size_t>(GetParam()) - 1];
  const std::size_t n = box.size();
  constexpr double kLipschitz = 3.0;
  constexpr double kPeak = 1.5;
  // One partition at the degrees enclose() picks for it.
  verify::AbstractionConfig config;
  config.epsilon_target = 0.25;
  config.max_degree = 64;
  config.max_partition_depth = 0;
  double radius = 0.0;
  const std::vector<int> degrees = verify::BernsteinPoly::degrees_for(
      kLipschitz, box, config.epsilon_target, config.max_degree, radius);
  ASSERT_LE(radius, config.epsilon_target);
  // The first, a middle and the last cell along every axis.
  for (const int which : {0, 1, 2}) {
    Vec apex(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int d = degrees[i];
      const int k = which == 0 ? 0 : which == 1 ? d / 2 : d - 1;
      apex[i] = box[i].lo() + (k + 0.5) * box[i].width() / d;
    }
    const ConeController cone(apex, kPeak, kLipschitz);
    verify::VerificationBudget budget;
    const auto enclosure =
        verify::NnAbstraction(cone, config).enclose(box, {}, budget);
    ASSERT_EQ(enclosure.partitions, 1);
    EXPECT_EQ(enclosure.epsilon, radius);
    const Interval& range = enclosure.u_range[0];
    const double top = cone.act(apex)[0];
    EXPECT_TRUE(range.contains(top))
        << "cell " << which << ": peak " << top << " not in "
        << range.to_string();
    const double rounding =
        2.0 * verify::kOutwardEps *
        std::max({std::abs(range.lo()), std::abs(range.hi()), 1.0});
    EXPECT_LE(range.hi() - top, rounding) << "cell " << which;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims1To4, ConeOracle, ::testing::Values(1, 2, 3, 4));

// --- the committed verify subjects ------------------------------------------

using Subject = std::shared_ptr<const ctrl::NnController>;

Subject load_subject(const std::string& system, const std::string& tag) {
  return std::make_shared<const ctrl::NnController>(
      ctrl::NnController::load_file(std::string(COCKTAIL_SUBJECT_DIR) + "/" +
                                        system + "_" + tag + ".txt",
                                    system + "_" + tag));
}

/// perfbench's reachability config (bench_fig4's).
verify::ReachConfig fig4_config() {
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.max_box_width = 0.02;
  config.merge_threshold = 2048;
  config.budget.max_nn_evaluations = 40'000'000;
  config.budget.max_partitions = 300'000;
  return config;
}

/// perfbench's invariant-set config (bench_fig3's).
verify::InvariantConfig fig3_config() {
  verify::InvariantConfig config;
  config.grid = {80, 80};
  config.abstraction.epsilon_target = 0.4;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.budget.max_nn_evaluations = 400'000'000;
  config.budget.max_partitions = 10'000'000;
  return config;
}

/// perfbench's reachability initial box at workload seed 1: bench_fig4's
/// corner box shifted by a seeded offset.
IBox perfbench_initial_box() {
  util::Rng rng(util::derive_seed(1, 81));
  const double lo[3] = {-0.11, 0.205, 0.1};
  const double size[3] = {0.005, 0.005, 0.01};
  Vec box_lo(3), box_hi(3);
  for (int d = 0; d < 3; ++d) {
    box_lo[d] = lo[d] + rng.uniform(-0.05, 0.05);
    box_hi[d] = box_lo[d] + size[d];
  }
  return verify::make_box(box_lo, box_hi);
}

Vec uniform_in(const IBox& box, util::Rng& rng) {
  Vec x(box.size());
  for (std::size_t i = 0; i < box.size(); ++i)
    x[i] = rng.uniform(box[i].lo(), box[i].hi());
  return x;
}

/// End of 40 projected signed-gradient steps on output `o` from `x`,
/// uphill for `sign` = +1 and downhill for −1, with steps shrinking from a
/// quarter of the box: it pushes κ_o toward its extreme over the box.
Vec gradient_extreme(const ctrl::NnController& controller, const IBox& box,
                     Vec x, std::size_t o, double sign) {
  double step = 0.25;
  for (int it = 0; it < 40; ++it, step *= 0.9) {
    const la::Matrix jacobian = controller.input_jacobian(x);
    for (std::size_t i = 0; i < box.size(); ++i) {
      const double g = jacobian(o, i);
      const double dir = g > 0.0 ? sign : g < 0.0 ? -sign : 0.0;
      x[i] = std::clamp(x[i] + dir * step * box[i].width(), box[i].lo(),
                        box[i].hi());
    }
  }
  return x;
}

/// Centres of the cells of the degree grid enclose() samples when the box
/// is one partition.
std::vector<Vec> cell_centres(const IBox& box, const std::vector<int>& degrees) {
  std::size_t total = 1;
  for (const int d : degrees) total *= static_cast<std::size_t>(d);
  std::vector<Vec> centres;
  for (std::size_t index = 0; index < total; ++index) {
    Vec x(box.size());
    std::size_t rem = index;
    for (std::size_t i = 0; i < box.size(); ++i) {
      const auto d = static_cast<std::size_t>(degrees[i]);
      const double k = static_cast<double>(rem % d) + 0.5;
      rem /= d;
      x[i] = box[i].lo() + k * box[i].width() / static_cast<double>(d);
    }
    centres.push_back(std::move(x));
  }
  return centres;
}

struct TrainedCase {
  std::string system;
  std::string tag;
  AbstractionMethod method;
};

std::string case_name(const ::testing::TestParamInfo<TrainedCase>& info) {
  const char* engine =
      info.param.method == AbstractionMethod::kBernstein ? "bernstein"
      : info.param.method == AbstractionMethod::kIntervalPropagation
          ? "ibp"
          : "hybrid";
  return info.param.system + "_" + info.param.tag + "_" + engine;
}

class TrainedOracle : public ::testing::TestWithParam<TrainedCase> {};

TEST_P(TrainedOracle, EnclosureContainsActAndActBatch) {
  const TrainedCase& c = GetParam();
  const Subject subject = load_subject(c.system, c.tag);
  const bool threed = c.system == "threed";
  // The workload's abstraction config, and the same with bisection off so
  // that the query box is one partition whose sample grid is known.
  verify::AbstractionConfig workload = threed ? fig4_config().abstraction
                                              : fig3_config().abstraction;
  workload.method = c.method;
  verify::AbstractionConfig single_leaf = workload;
  single_leaf.max_partition_depth = 0;
  // Query boxes: the reach initial box or an invariant grid cell, then
  // seeded boxes up to four (3D) or six (Van der Pol) times the
  // workload's box scale, so that the workload config bisects them.
  const IBox domain = verify::make_box(
      sys::make_system(c.system)->safe_region().lo,
      sys::make_system(c.system)->safe_region().hi);
  std::vector<IBox> boxes;
  boxes.push_back(threed ? perfbench_initial_box()
                         : verify::box_subdivide_at(domain, {80, 80}, 3321));
  util::Rng rng(threed ? 11 : 12);
  const double scale = threed ? 0.08 : 0.3;
  for (int b = 0; b < 5; ++b) {
    IBox box(domain.size());
    for (std::size_t i = 0; i < box.size(); ++i) {
      const double width = rng.uniform(0.25, 1.0) * scale;
      const double lo =
          rng.uniform(0.5 * domain[i].lo(), 0.5 * domain[i].hi() - width);
      box[i] = Interval(lo, lo + width);
    }
    boxes.push_back(std::move(box));
  }

  const std::size_t outputs = subject->control_dim();
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    const IBox& box = boxes[b];
    std::vector<Vec> points;
    for (int k = 0; k < 64; ++k) points.push_back(uniform_in(box, rng));
    double unused = 0.0;
    const std::vector<Vec> centres = cell_centres(
        box, verify::BernsteinPoly::degrees_for(
                 subject->lipschitz_bound(), box, workload.epsilon_target,
                 workload.max_degree, unused));
    points.insert(points.end(), centres.begin(), centres.end());
    for (std::size_t o = 0; o < outputs; ++o)
      for (const double sign : {1.0, -1.0})
        for (int start = 0; start < 3; ++start)
          points.push_back(gradient_extreme(
              *subject, box,
              start == 0 ? verify::box_mid(box) : uniform_in(box, rng), o,
              sign));
    const std::vector<Vec> batch = subject->act_batch(points);
    for (const auto& config : {workload, single_leaf}) {
      verify::VerificationBudget budget;
      const auto enclosure =
          verify::NnAbstraction(*subject, config).enclose(box, {}, budget);
      for (std::size_t o = 0; o < outputs; ++o) {
        const Interval& range = enclosure.u_range[o];
        ASSERT_TRUE(range.valid()) << "box " << b;
        for (std::size_t p = 0; p < points.size(); ++p) {
          const double u = subject->act(points[p])[o];
          EXPECT_TRUE(range.contains(u))
              << "box " << b << " point " << p << " depth cap "
              << config.max_partition_depth << ": " << u << " not in "
              << range.to_string();
          EXPECT_TRUE(range.contains(batch[p][o]))
              << "box " << b << " row " << p;
        }
      }
    }
  }
}

std::vector<TrainedCase> trained_cases() {
  std::vector<TrainedCase> cases;
  for (const char* system : {"threed", "vanderpol"})
    for (const char* tag : {"kstar", "kd"})
      for (const auto method :
           {AbstractionMethod::kBernstein,
            AbstractionMethod::kIntervalPropagation,
            AbstractionMethod::kHybrid})
        cases.push_back({system, tag, method});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Subjects, TrainedOracle,
                         ::testing::ValuesIn(trained_cases()), case_name);

// --- reachability and invariant sets ----------------------------------------

class ReachOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(ReachOracle, TrajectoriesStayInEveryLayer) {
  const sys::SystemPtr system = sys::make_system("threed");
  const Subject subject = load_subject("threed", GetParam());
  const IBox initial = perfbench_initial_box();
  const verify::ReachResult result =
      verify::ReachabilityAnalyzer(system, *subject, fig4_config())
          .analyze(initial);
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_TRUE(result.safe);
  ASSERT_EQ(result.layers.size(), 16u);
  util::Rng rng(21);
  for (int trajectory = 0; trajectory < 200; ++trajectory) {
    // The first eight start at the initial box's corners.
    Vec s(3);
    for (std::size_t i = 0; i < 3; ++i)
      s[i] = trajectory < 8 ? ((trajectory >> i) & 1 ? initial[i].hi()
                                                     : initial[i].lo())
                            : rng.uniform(initial[i].lo(), initial[i].hi());
    for (std::size_t t = 0; t < result.layers.size(); ++t) {
      const auto& layer = result.layers[t];
      const bool covered =
          std::any_of(layer.begin(), layer.end(), [&](const IBox& box) {
            return verify::box_contains(box, s);
          });
      ASSERT_TRUE(covered) << "trajectory " << trajectory << " step " << t;
      s = system->step(s, system->clip_control(subject->act(s)),
                       system->sample_disturbance(rng));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreeD, ReachOracle,
                         ::testing::Values("kstar", "kd"));

class InvariantOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(InvariantOracle, StatesInXiStayInXiAfterOneStep) {
  const sys::SystemPtr system = sys::make_system("vanderpol");
  const Subject subject = load_subject("vanderpol", GetParam());
  const verify::InvariantResult result =
      verify::InvariantSetComputer(system, *subject, fig3_config()).compute();
  ASSERT_TRUE(result.completed) << result.failure;
  ASSERT_GT(result.volume_fraction, 0.0);
  const sys::Box domain = system->safe_region();
  const sys::Box omega = system->disturbance_bounds();
  util::Rng rng(31);
  int checked = 0;
  for (int draw = 0; draw < 20000; ++draw) {
    const auto cell = static_cast<std::size_t>(
        rng.uniform_index(result.cell_count()));
    if (!result.member[cell]) continue;
    const Vec s = uniform_in(result.cell_box(domain, cell), rng);
    // Uniform disturbances, and every other draw at a vertex of Ω.
    Vec w = system->sample_disturbance(rng);
    if (draw % 2 == 1)
      for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.uniform() < 0.5 ? omega.lo[i] : omega.hi[i];
    const Vec next = system->step(s, system->clip_control(subject->act(s)), w);
    ++checked;
    ASSERT_TRUE(result.contains(domain, next))
        << "cell " << cell << " draw " << draw;
  }
  EXPECT_GT(checked, 10000);
}

INSTANTIATE_TEST_SUITE_P(VanDerPol, InvariantOracle,
                         ::testing::Values("kstar", "kd"));

}  // namespace
}  // namespace cocktail
