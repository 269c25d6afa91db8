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
//  * Interval dynamics: IntervalDynamics::step(box, u_box) contains
//    System::step(s, u, ω) for states at the box's corners and inside it,
//    controls at the interval's ends and inside it, and disturbances at
//    Ω's vertices and inside it — Van der Pol, 3D and cartpole.
//  * Reachability (Definition 2): concrete closed-loop trajectories of the
//    3D system stay in ∪ layers[t] at every step t.
//  * Invariant sets (Definition 1): Van der Pol states in XI stay in XI
//    after one step under any sampled disturbance in Ω.  A sweep stopped
//    by its iteration cap before the fixed point certifies nothing.
//  * The serving monitor: whenever SafetyMonitor::certified(s) holds, the
//    whole ±margin box around s lies in the certified box or in XI's
//    member cells — its corners and seeded points inside, for states drawn
//    near the edge where certification stops.
//
// Seeds are fixed, so any failure replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/nn_controller.h"
#include "serve/safety_monitor.h"
#include "sys/registry.h"
#include "util/rng.h"
#include "verify/bernstein.h"
#include "verify/interval_dynamics.h"
#include "verify/invariant.h"
#include "verify/nn_abstraction.h"
#include "verify/reach.h"
#include "verify/tolerances.h"
#include "verify_subjects.h"

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
  std::vector<int> degrees;
  const double radius = verify::BernsteinPoly::degrees_for(
      kLipschitz, box, config.epsilon_target, config.max_degree, degrees);
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

using testutil::fig3_config;
using testutil::fig4_config;
using testutil::load_subject;
using testutil::Subject;

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
    std::vector<int> degrees;
    (void)verify::BernsteinPoly::degrees_for(subject->lipschitz_bound(), box,
                                             workload.epsilon_target,
                                             workload.max_degree, degrees);
    const std::vector<Vec> centres = cell_centres(box, degrees);
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

// --- interval dynamics ------------------------------------------------------

/// The 2^n corners of `box` and `inner` seeded points inside it.
std::vector<Vec> corners_and_inner(const IBox& box, int inner,
                                   util::Rng& rng) {
  const std::size_t n = box.size();
  std::vector<Vec> points;
  for (std::size_t corner = 0; corner < (std::size_t{1} << n); ++corner) {
    Vec p(n);
    for (std::size_t i = 0; i < n; ++i)
      p[i] = (corner >> i) & 1 ? box[i].hi() : box[i].lo();
    points.push_back(std::move(p));
  }
  for (int k = 0; k < inner; ++k) points.push_back(uniform_in(box, rng));
  return points;
}

class DynamicsOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(DynamicsOracle, IntervalStepContainsTheConcreteStep) {
  const sys::SystemPtr system = sys::make_system(GetParam());
  const auto dynamics = verify::make_interval_dynamics(*system);
  const IBox region = verify::make_box(system->sampling_region().lo,
                                       system->sampling_region().hi);
  const IBox controls = verify::make_box(system->control_bounds().lo,
                                         system->control_bounds().hi);
  const sys::Box omega = system->disturbance_bounds();
  // Ω's vertices and two points inside; one empty ω when undisturbed.
  std::vector<Vec> omegas = {Vec{}};
  util::Rng rng(51);
  if (omega.dim() > 0)
    omegas = corners_and_inner(verify::make_box(omega.lo, omega.hi), 2, rng);
  const std::size_t n = region.size();
  for (int b = 0; b < 60; ++b) {
    // Point boxes, boxes of 1% of the sampling region per side, and boxes
    // up to a third of it: the disturbance is not lost in the wrapping.
    const double scale = b % 3 == 0 ? 0.0 : b % 3 == 1 ? 0.01 : 0.3;
    IBox box(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double width = scale * region[i].width() * rng.uniform();
      const double lo = rng.uniform(region[i].lo(), region[i].hi() - width);
      box[i] = Interval(lo, lo + width);
    }
    IBox u_box(controls.size());
    for (std::size_t j = 0; j < u_box.size(); ++j) {
      const double a = rng.uniform(controls[j].lo(), controls[j].hi());
      const double c = rng.uniform(controls[j].lo(), controls[j].hi());
      u_box[j] = Interval(std::min(a, c), std::max(a, c));
    }
    const IBox image = dynamics->step(box, u_box);
    for (const Vec& s : corners_and_inner(box, 16, rng))
      for (const Vec& u : corners_and_inner(u_box, 2, rng))
        for (const Vec& w : omegas) {
          const Vec next = system->step(s, u, w);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(image[i].contains(next[i]))
                << "box " << b << ", dimension " << i << ": " << next[i]
                << " not in " << image[i].to_string();
        }
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, DynamicsOracle,
                         ::testing::Values("vanderpol", "threed", "cartpole"));

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

TEST(InvariantCap, ASweepStoppedBeforeItsFixedPointCertifiesNothing) {
  // At the workload's config κD's sweep reaches its fixed point in five
  // iterations: the fifth removes nothing.  Capped at four, the last sweep
  // still removed cells, so no sweep checked the survivors against each
  // other and the set is not known to be invariant.
  const sys::SystemPtr system = sys::make_system("vanderpol");
  const Subject subject = load_subject("vanderpol", "kd");
  const auto compute = [&](int cap) {
    verify::InvariantConfig config = fig3_config();
    config.max_iterations = cap;
    return verify::InvariantSetComputer(system, *subject, config).compute();
  };
  const verify::InvariantResult full = compute(fig3_config().max_iterations);
  ASSERT_TRUE(full.completed) << full.failure;
  ASSERT_EQ(full.iterations, 5);

  const verify::InvariantResult capped = compute(4);
  EXPECT_FALSE(capped.completed);
  EXPECT_NE(capped.failure.find("max_iterations = 4"), std::string::npos)
      << capped.failure;
  EXPECT_THROW((void)serve::SafetyMonitor::inside_invariant(
                   capped, system->safe_region()),
               std::invalid_argument);

  const verify::InvariantResult exact = compute(5);
  ASSERT_TRUE(exact.completed) << exact.failure;
  EXPECT_EQ(exact.iterations, 5);
  EXPECT_EQ(exact.member, full.member);
}

// --- the serving monitor ----------------------------------------------------

/// The corners of [s − margin, s + margin] and 64 seeded points inside it.
std::vector<Vec> margin_box_points(const Vec& s, double margin,
                                   util::Rng& rng) {
  IBox box(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    box[i] = Interval(s[i] - margin, s[i] + margin);
  return corners_and_inner(box, 64, rng);
}

/// A state near where inside_box(box, margin) stops certifying: each
/// coordinate, with probability 1/2, a few ulps or a small offset from
/// lo + margin or hi − margin; otherwise uniform in the box.
Vec near_box_edge(const sys::Box& box, double margin, util::Rng& rng) {
  Vec s(box.dim());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double draw = rng.uniform();
    if (draw < 0.5) {
      s[i] = rng.uniform(box.lo[i], box.hi[i]);
      continue;
    }
    const bool low = draw < 0.75;
    double x = low ? box.lo[i] + margin : box.hi[i] - margin;
    if (rng.uniform() < 0.5) {
      const auto ulps = static_cast<int>(rng.uniform_index(7)) - 3;
      for (int u = 0; u < std::abs(ulps); ++u)
        x = std::nextafter(x, ulps < 0 ? -1e300 : 1e300);
    } else {
      const double scale =
          std::max(margin, 1e-3 * (box.hi[i] - box.lo[i]));
      x += scale * rng.uniform(-0.5, 0.5);
    }
    s[i] = x;
  }
  return s;
}

TEST(MonitorOracle, InsideBoxCertifiesOnlyMarginBoxesInTheBox) {
  const sys::Box box({-2.5, -1.0, 0.3}, {2.5, 0.75, 0.9});
  util::Rng rng(41);
  for (const double margin : {0.0, 0.01, 0.1, 0.25}) {
    const serve::SafetyMonitor monitor =
        serve::SafetyMonitor::inside_box(box, margin);
    int certified = 0;
    int refused = 0;
    for (int draw = 0; draw < 4000; ++draw) {
      const Vec s = near_box_edge(box, margin, rng);
      if (!monitor.certified(s)) {
        ++refused;
        continue;
      }
      ++certified;
      for (const Vec& p : margin_box_points(s, margin, rng))
        ASSERT_TRUE(box.contains(p))
            << "margin " << margin << ", draw " << draw << ": " << std::hexfloat
            << "(" << p[0] << ", " << p[1] << ", " << p[2] << ")";
    }
    // Both verdicts occur near the edge, so the check is not vacuous.
    EXPECT_GT(certified, 400) << "margin " << margin;
    EXPECT_GT(refused, 400) << "margin " << margin;
  }
}

TEST(MonitorOracle, InsideInvariantCertifiesOnlyMarginBoxesInXi) {
  const sys::SystemPtr system = sys::make_system("vanderpol");
  const Subject subject = load_subject("vanderpol", "kstar");
  const verify::InvariantResult result =
      verify::InvariantSetComputer(system, *subject, fig3_config()).compute();
  ASSERT_TRUE(result.completed) << result.failure;
  const sys::Box domain = system->safe_region();
  // XI's edge: member cells with a non-member neighbour or on X's border.
  const int cols = result.grid[0];
  const int rows = result.grid[1];
  std::vector<std::size_t> edge;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto index = static_cast<std::size_t>(r * cols + c);
      if (!result.member[index]) continue;
      bool at_edge = false;
      for (const auto& [dc, dr] : {std::pair{-1, 0}, std::pair{1, 0},
                                   std::pair{0, -1}, std::pair{0, 1}}) {
        const int nc = c + dc;
        const int nr = r + dr;
        at_edge = at_edge || nc < 0 || nc >= cols || nr < 0 || nr >= rows ||
                  !result.member[static_cast<std::size_t>(nr * cols + nc)];
      }
      if (at_edge) edge.push_back(index);
    }
  }
  ASSERT_FALSE(edge.empty());
  util::Rng rng(43);
  for (const double margin : {0.0, 0.02, 0.05, 0.15}) {
    const serve::SafetyMonitor monitor =
        serve::SafetyMonitor::inside_invariant(result, domain, margin);
    int certified = 0;
    int refused = 0;
    for (int draw = 0; draw < 4000; ++draw) {
      // Three draws in four within the margin (at least half a cell) of
      // an edge cell, the rest anywhere in X.
      Vec s(2);
      if (draw % 4 != 0) {
        const IBox cell = result.cell_box(
            domain, edge[static_cast<std::size_t>(rng.uniform_index(
                        edge.size()))]);
        for (std::size_t i = 0; i < 2; ++i) {
          const double reach = std::max(margin, 0.5 * cell[i].width());
          s[i] = rng.uniform(cell[i].lo() - reach, cell[i].hi() + reach);
        }
      } else {
        for (std::size_t i = 0; i < 2; ++i)
          s[i] = rng.uniform(domain.lo[i], domain.hi[i]);
      }
      if (!monitor.certified(s)) {
        ++refused;
        continue;
      }
      ++certified;
      for (const Vec& p : margin_box_points(s, margin, rng))
        ASSERT_TRUE(result.contains(domain, p))
            << "margin " << margin << ", draw " << draw << ": state ("
            << s[0] << ", " << s[1] << "), point (" << p[0] << ", " << p[1]
            << ") outside XI";
    }
    EXPECT_GT(certified, 400) << "margin " << margin;
    EXPECT_GT(refused, 400) << "margin " << margin;
  }
}

}  // namespace
}  // namespace cocktail
