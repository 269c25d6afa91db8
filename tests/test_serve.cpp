// Tests for the serving runtime (src/serve): SafetyMonitor region
// semantics, micro-batched dispatch bitwise-matching the act_reference path
// across dispatcher-count/batch-size/linger configurations, fallback routing
// and admission control with exact counters, the pinned
// submit-after-shutdown contract, the SLO metrics registry, and
// cached-artifact loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.h"
#include "control/nn_controller.h"
#include "nn/mlp.h"
#include "serve/controller_server.h"
#include "serve/registry.h"
#include "serve/safety_monitor.h"
#include "sys/registry.h"
#include "util/paths.h"
#include "util/rng.h"

namespace cocktail {
namespace {

using la::Vec;

/// Fallback whose output is unmistakable: u = {kMark}.  Lets tests verify a
/// request really was answered by the fallback, not by a near-zero network.
class MarkerController final : public ctrl::Controller {
 public:
  static constexpr double kMark = 42.25;

  MarkerController(std::size_t state_dim, std::size_t control_dim)
      : state_dim_(state_dim), control_dim_(control_dim) {}

  [[nodiscard]] Vec act(const Vec&) const override {
    return la::constant(control_dim_, kMark);
  }
  [[nodiscard]] std::size_t state_dim() const override { return state_dim_; }
  [[nodiscard]] std::size_t control_dim() const override {
    return control_dim_;
  }
  [[nodiscard]] std::string describe() const override { return "marker"; }

 private:
  std::size_t state_dim_;
  std::size_t control_dim_;
};

/// Fallback that always throws — exception-propagation coverage.
class ThrowingController final : public ctrl::Controller {
 public:
  [[nodiscard]] Vec act(const Vec&) const override {
    throw std::runtime_error("fallback boom");
  }
  [[nodiscard]] std::size_t state_dim() const override { return 2; }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "throwing"; }
};

std::shared_ptr<const ctrl::NnController> make_student(std::uint64_t seed = 9) {
  nn::Mlp net = nn::Mlp::make(2, {16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, seed);
  return std::make_shared<const ctrl::NnController>(std::move(net),
                                                    Vec{2.5}, "k*");
}

sys::Box unit_box() {
  return sys::Box{{-1.0, -1.0}, {1.0, 1.0}};
}

// --- SafetyMonitor ---------------------------------------------------------

TEST(SafetyMonitor, DefaultCertifiesNothing) {
  const serve::SafetyMonitor monitor;
  EXPECT_FALSE(monitor.certified({0.0, 0.0}));
}

TEST(SafetyMonitor, TrustAllCertifiesEverything) {
  const auto monitor = serve::SafetyMonitor::trust_all();
  EXPECT_TRUE(monitor.certified({1e9, -1e9}));
}

TEST(SafetyMonitor, BoxMembershipWithMargin) {
  const auto plain = serve::SafetyMonitor::inside_box(unit_box());
  EXPECT_TRUE(plain.certified({0.99, -0.99}));
  EXPECT_FALSE(plain.certified({1.01, 0.0}));

  const auto shrunk = serve::SafetyMonitor::inside_box(unit_box(), 0.1);
  EXPECT_TRUE(shrunk.certified({0.89, -0.89}));
  EXPECT_FALSE(shrunk.certified({0.95, 0.0}));  // inside box, outside margin.
}

TEST(SafetyMonitor, WrongDimensionIsNeverCertified) {
  const auto monitor = serve::SafetyMonitor::inside_box(unit_box());
  EXPECT_FALSE(monitor.certified({0.0}));
  EXPECT_FALSE(monitor.certified({0.0, 0.0, 0.0}));
}

verify::InvariantResult checkerboard_invariant() {
  // 2x2 grid over [-1,1]^2; only the lower-left and upper-right cells are
  // invariant members (flattened dim-0-fastest: cells 0 and 3).
  verify::InvariantResult result;
  result.grid = {2, 2};
  result.member = {true, false, false, true};
  result.completed = true;
  return result;
}

TEST(SafetyMonitor, InvariantMembershipFollowsTheGrid) {
  const auto monitor = serve::SafetyMonitor::inside_invariant(
      checkerboard_invariant(), unit_box());
  EXPECT_TRUE(monitor.certified({-0.5, -0.5}));   // cell 0: member.
  EXPECT_TRUE(monitor.certified({0.5, 0.5}));     // cell 3: member.
  EXPECT_FALSE(monitor.certified({0.5, -0.5}));   // cell 1: removed.
  EXPECT_FALSE(monitor.certified({-0.5, 0.5}));   // cell 2: removed.
  EXPECT_FALSE(monitor.certified({1.5, 0.5}));    // outside the domain.
}

// Regression for the NaN-certified hole: the box mode's exclusion-direction
// comparison chain (`s < lo || s > hi`) is false for NaN in both clauses, so
// a corrupted observation used to fall through as certified and get served
// by the primary network.  Non-finite states must fail certification in
// every mode — including trust_all, whose promise covers finite states only.
TEST(SafetyMonitor, NonFiniteStatesAreNeverCertified) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<serve::SafetyMonitor> monitors = {
      serve::SafetyMonitor::trust_all(),
      serve::SafetyMonitor::inside_box(unit_box()),
      serve::SafetyMonitor::inside_box(unit_box(), 0.1),
      serve::SafetyMonitor::inside_invariant(checkerboard_invariant(),
                                             unit_box()),
      serve::SafetyMonitor::inside_invariant(checkerboard_invariant(),
                                             unit_box(), 0.2),
  };
  for (std::size_t m = 0; m < monitors.size(); ++m) {
    for (const double bad : {nan, inf, -inf}) {
      EXPECT_FALSE(monitors[m].certified({bad, 0.0})) << "monitor " << m;
      EXPECT_FALSE(monitors[m].certified({0.0, bad})) << "monitor " << m;
      EXPECT_FALSE(monitors[m].certified({bad, bad})) << "monitor " << m;
    }
    // A finite in-regime point stays certified (lower-left member cell).
    EXPECT_TRUE(monitors[m].certified({-0.5, -0.5})) << "monitor " << m;
  }
}

TEST(SafetyMonitor, InvariantMarginChecksTheWholeUncertaintyBox) {
  const auto monitor = serve::SafetyMonitor::inside_invariant(
      checkerboard_invariant(), unit_box(), 0.2);
  // Deep inside the member cell: the whole +/-0.2 box stays in cell 0.
  EXPECT_TRUE(monitor.certified({-0.5, -0.5}));
  // Near the cell boundary: a corner of the uncertainty box crosses into
  // the removed cell 1, so the certificate no longer covers the request.
  EXPECT_FALSE(monitor.certified({-0.1, -0.5}));
}

TEST(SafetyMonitor, WideMarginCannotSkipInteriorCells) {
  // Soundness regression: a margin wider than half a cell straddles cells
  // no corner of the uncertainty box lands in.  3x3 grid over [-1.5,1.5]^2
  // with only the center cell removed; from (0,0) with margin 1.0 every
  // corner lies in a member cell, but the center cell itself is not one —
  // the certificate must NOT cover the request.
  verify::InvariantResult result;
  result.grid = {3, 3};
  result.member.assign(9, true);
  result.member[4] = false;  // center cell (k = (1,1), dim-0-fastest).
  result.completed = true;
  const sys::Box domain{{-1.5, -1.5}, {1.5, 1.5}};
  const auto wide =
      serve::SafetyMonitor::inside_invariant(result, domain, 1.0);
  EXPECT_FALSE(wide.certified({0.0, 0.0}));
  const auto narrow =
      serve::SafetyMonitor::inside_invariant(result, domain, 0.4);
  // A box fully inside member cells is still certified.
  EXPECT_TRUE(narrow.certified({-1.0, -1.0}));
  // An uncertainty box leaving the domain is never certified.
  EXPECT_FALSE(narrow.certified({-1.4, 0.9}));
}

// A NaN margin used to pass the `margin < 0` check: inside_box then
// certified every finite state (both margin comparisons are false for
// NaN), and inside_invariant cast NaN to int in the window quantization.
TEST(SafetyMonitor, MarginMustBeFiniteAndNonNegative) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double margin : {-0.1, nan, inf, -inf}) {
    EXPECT_THROW((void)serve::SafetyMonitor::inside_box(unit_box(), margin),
                 std::invalid_argument)
        << margin;
    EXPECT_THROW((void)serve::SafetyMonitor::inside_invariant(
                     checkerboard_invariant(), unit_box(), margin),
                 std::invalid_argument)
        << margin;
  }
}

TEST(SafetyMonitor, MalformedInvariantIsRejected) {
  const auto rejected = [](const verify::InvariantResult& result,
                           const sys::Box& domain, const char* what) {
    EXPECT_THROW((void)serve::SafetyMonitor::inside_invariant(result, domain),
                 std::invalid_argument)
        << what;
  };
  verify::InvariantResult incomplete = checkerboard_invariant();
  incomplete.completed = false;
  rejected(incomplete, unit_box(), "incomplete");
  // The window walk indexes `member` by grid coordinates.  A member array
  // shorter than Π grid used to be accepted (on grids the cell-set tree
  // cannot index, nothing else checked it), and certified() read past its
  // end.
  verify::InvariantResult short_members;
  short_members.grid.assign(9, 2);  // dim > kMaxSfcDim: no tree.
  short_members.member.assign(3, true);
  short_members.completed = true;
  rejected(short_members, sys::Box::symmetric(9, 1.0), "short member array");
  // The size check cannot wrap: Π grid = 2^64 ≡ 0 in size_t, which a
  // plain product would match against an empty member array.
  verify::InvariantResult wrapped;
  wrapped.grid = {1 << 30, 1 << 30, 1 << 4};
  wrapped.completed = true;
  rejected(wrapped, sys::Box::symmetric(3, 1.0), "wrapping grid");
  verify::InvariantResult empty_axis = checkerboard_invariant();
  empty_axis.grid = {0, 2};
  rejected(empty_axis, unit_box(), "zero cell count");
  // The window quantization divides by each cell's width.
  rejected(checkerboard_invariant(),
           sys::Box(Vec{-1.0, -sys::Box::kUnbounded},
                    Vec{1.0, sys::Box::kUnbounded}),
           "unbounded domain");
  rejected(checkerboard_invariant(), sys::Box(Vec{-1.0, 0.0}, Vec{1.0, 0.0}),
           "zero-width domain");
}

/// Reference for the invariant margin check: the pre-tree flat odometer
/// over the member window, verbatim — the SFC-keyed CellSetTree path must
/// return bitwise-identical verdicts.
bool flat_margin_certified(const std::vector<int>& grid,
                           const std::vector<bool>& member,
                           const sys::Box& domain, double margin,
                           const Vec& state) {
  for (std::size_t d = 0; d < state.size(); ++d)
    if (!std::isfinite(state[d])) return false;
  if (state.size() != domain.dim()) return false;
  std::vector<int> lo_k(state.size()), hi_k(state.size());
  for (std::size_t d = 0; d < state.size(); ++d) {
    const double lo = state[d] - margin;
    const double hi = state[d] + margin;
    if (lo < domain.lo[d] || hi > domain.hi[d]) return false;
    const double w =
        (domain.hi[d] - domain.lo[d]) / static_cast<double>(grid[d]);
    lo_k[d] = std::clamp(static_cast<int>(std::floor((lo - domain.lo[d]) / w)),
                         0, grid[d] - 1);
    hi_k[d] = std::clamp(static_cast<int>(std::floor((hi - domain.lo[d]) / w)),
                         0, grid[d] - 1);
  }
  std::vector<int> k = lo_k;
  for (;;) {
    std::size_t index = 0, stride = 1;
    for (std::size_t d = 0; d < k.size(); ++d) {
      index += static_cast<std::size_t>(k[d]) * stride;
      stride *= static_cast<std::size_t>(grid[d]);
    }
    if (member[index] == 0) return false;
    std::size_t d = 0;
    while (d < k.size() && ++k[d] > hi_k[d]) {
      k[d] = lo_k[d];
      ++d;
    }
    if (d == k.size()) break;
  }
  return true;
}

TEST(SafetyMonitor, SfcIndexMatchesFlatOdometerOnRandomizedInvariants) {
  // The Morton-keyed member index behind the margin path is an index, not a
  // semantics change: randomized grids, member sets, margins, and states
  // must certify bitwise-identically to the flat window walk it replaced.
  util::Rng rng(57);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 2 + static_cast<std::size_t>(trial % 2);
    std::vector<int> grid(dim);
    std::size_t total = 1;
    for (auto& g : grid) {
      g = 2 + static_cast<int>(rng.uniform(0.0, 7.0));
      total *= static_cast<std::size_t>(g);
    }
    verify::InvariantResult result;
    result.grid = grid;
    result.completed = true;
    result.member.resize(total);
    for (std::size_t c = 0; c < total; ++c)
      result.member[c] = rng.uniform(0.0, 1.0) < 0.6;
    const sys::Box domain = sys::Box::symmetric(dim, 1.0);
    const double margin = rng.uniform(0.05, 0.5);
    const auto monitor =
        serve::SafetyMonitor::inside_invariant(result, domain, margin);
    for (int q = 0; q < 200; ++q) {
      Vec state(dim);
      for (auto& x : state) x = rng.uniform(-1.2, 1.2);
      ASSERT_EQ(monitor.certified(state),
                flat_margin_certified(grid, result.member, domain, margin,
                                      state))
          << "trial " << trial << " query " << q;
    }
  }
}

TEST(SafetyMonitor, OutsizedGridsFallBackToTheFlatWalk) {
  // A 9-dimensional grid cannot pack into a 64-bit Morton key
  // (dim > kMaxSfcDim), so the monitor walks the member window flat
  // (InvariantResult::all_members) — same verdicts, no tree.
  const std::size_t dim = 9;
  ASSERT_GT(dim, verify::kMaxSfcDim);
  verify::InvariantResult result;
  result.grid.assign(dim, 2);
  result.completed = true;
  result.member.assign(std::size_t{1} << dim, true);
  result.member[0] = false;  // the all-lo corner cell is not a member.
  const sys::Box domain = sys::Box::symmetric(dim, 1.0);
  const auto monitor =
      serve::SafetyMonitor::inside_invariant(result, domain, 0.1);
  Vec state(dim, 0.5);
  EXPECT_TRUE(monitor.certified(state));      // deep in member cells.
  Vec corner(dim, -0.5);
  EXPECT_FALSE(monitor.certified(corner));    // overlaps the removed cell.
  Vec straddle(dim, 0.5);
  straddle[0] = -0.5;  // still certifies: cell (0,1,...,1) is a member.
  EXPECT_TRUE(monitor.certified(straddle));
}

TEST(SafetyMonitor, ActionDeviationBoundUsesTheCertifiedLipschitz) {
  const auto student = make_student();
  const double lip = student->lipschitz_bound();
  ASSERT_GT(lip, 0.0);
  EXPECT_DOUBLE_EQ(
      serve::SafetyMonitor::action_deviation_bound(*student, 0.05),
      lip * std::sqrt(2.0) * 0.05);
  const MarkerController uncertified(2, 1);
  EXPECT_LT(serve::SafetyMonitor::action_deviation_bound(uncertified, 0.05),
            0.0);
}

// --- ControllerServer: routing and contracts -------------------------------

/// The admission accounting every serving test pins once traffic quiesces:
/// each valid submit() lands in exactly one admission bucket, and each
/// admitted request took exactly one execution path.
void expect_exact_accounting(const serve::ServeCounters& counters,
                             std::uint64_t submitted) {
  EXPECT_EQ(counters.accepted + counters.shed + counters.rejected, submitted);
  EXPECT_EQ(counters.primary + counters.fallback, counters.accepted);
}

TEST(ControllerServer, PrimaryAndFallbackRouting) {
  serve::ControllerServer server;
  const auto student = make_student();
  server.register_controller(
      "vdp", student, std::make_shared<MarkerController>(2, 1),
      serve::SafetyMonitor::inside_box(unit_box()));

  const Vec inside = {0.3, -0.4};
  const Vec outside = {2.0, 0.0};
  auto in_future = server.submit("vdp", inside);
  auto out_future = server.submit("vdp", outside);

  // In-regime: exactly the network's action.  Out-of-regime: verifiably the
  // fallback's answer.
  EXPECT_EQ(in_future.get(), student->act(inside));
  EXPECT_EQ(out_future.get(), Vec{MarkerController::kMark});
  server.drain();

  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.primary, 1u);
  EXPECT_EQ(counters.fallback, 1u);
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.max_batch_rows, 1u);
  expect_exact_accounting(counters, 2);
}

// The serving half of the NaN-certified regression: corrupted observations
// submitted through the server are answered by the trusted fallback (never
// the primary network) and show up in the fallback counter — even under
// trust_all, where every finite state is served by the primary.
TEST(ControllerServer, NonFiniteSubmitsAreAnsweredByTheFallback) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto student = make_student();
  for (const auto& monitor :
       {serve::SafetyMonitor::trust_all(),
        serve::SafetyMonitor::inside_box(unit_box())}) {
    serve::ControllerServer server;
    server.register_controller(
        "vdp", student, std::make_shared<MarkerController>(2, 1), monitor);
    const std::vector<Vec> bad_states = {
        {nan, 0.0}, {0.0, nan}, {inf, 0.0}, {0.0, -inf}, {nan, inf}};
    for (const Vec& s : bad_states)
      EXPECT_EQ(server.submit("vdp", s).get(), Vec{MarkerController::kMark});
    // A finite in-regime request still reaches the primary.
    EXPECT_EQ(server.submit("vdp", {0.3, -0.4}).get(),
              student->act({0.3, -0.4}));
    server.drain();
    const auto counters = server.counters("vdp");
    EXPECT_EQ(counters.fallback, bad_states.size());
    EXPECT_EQ(counters.primary, 1u);
    expect_exact_accounting(counters, bad_states.size() + 1);
  }
}

TEST(ControllerServer, ReferencePathTakesNoCounters) {
  serve::ControllerServer server;
  const auto student = make_student();
  server.register_controller(
      "vdp", student, std::make_shared<MarkerController>(2, 1),
      serve::SafetyMonitor::inside_box(unit_box()));
  EXPECT_EQ(server.act_reference("vdp", {0.3, -0.4}),
            student->act({0.3, -0.4}));
  EXPECT_EQ(server.act_reference("vdp", {2.0, 0.0}),
            Vec{MarkerController::kMark});
  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.primary, 0u);
  EXPECT_EQ(counters.fallback, 0u);
  expect_exact_accounting(counters, 0);
}

TEST(ControllerServer, RegistrationAndSubmitValidation) {
  serve::ControllerServer server;
  const auto student = make_student();
  const auto fallback = std::make_shared<MarkerController>(2, 1);
  server.register_controller("vdp", student, fallback,
                             serve::SafetyMonitor::trust_all());

  EXPECT_THROW((void)server.submit("nope", {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit("vdp", {0.0}), std::invalid_argument);
  EXPECT_THROW((void)server.act_reference("vdp", {0.0}),
               std::invalid_argument);
  EXPECT_THROW(server.register_controller("vdp", student, fallback,
                                          serve::SafetyMonitor::trust_all()),
               std::invalid_argument);
  EXPECT_THROW(server.register_controller("null", nullptr, fallback,
                                          serve::SafetyMonitor::trust_all()),
               std::invalid_argument);
  EXPECT_THROW(server.register_controller("nofb", student, nullptr,
                                          serve::SafetyMonitor::trust_all()),
               std::invalid_argument);
  EXPECT_THROW(
      server.register_controller("dims", student,
                                 std::make_shared<MarkerController>(3, 1),
                                 serve::SafetyMonitor::trust_all()),
      std::invalid_argument);
  // Invalid submissions never reach admission.
  expect_exact_accounting(server.counters("vdp"), 0);
}

TEST(ControllerServer, ControllerExceptionsTravelThroughTheFuture) {
  serve::ControllerServer server;
  server.register_controller("vdp", make_student(),
                             std::make_shared<ThrowingController>(),
                             serve::SafetyMonitor());  // everything falls back.
  auto future = server.submit("vdp", {0.0, 0.0});
  EXPECT_THROW((void)future.get(), std::runtime_error);
  server.drain();
  expect_exact_accounting(server.counters("vdp"), 1);
}

// --- ControllerServer: micro-batching ---------------------------------------

/// The acceptance pin: N concurrent submissions across {1,2,4} dispatchers
/// × a batch-size / linger sweep return exactly the actions act_reference
/// produces, out-of-invariant states are verifiably answered by the
/// fallback, and the admission counters are exact (everything accepted,
/// nothing shed or rejected).
TEST(ControllerServer, AsyncMatchesReferenceForAnyConfiguration) {
  const auto student = make_student();
  const auto monitor = serve::SafetyMonitor::inside_box(unit_box());

  // Mixed workload: ~2/3 certified states, ~1/3 outside the box.
  util::Rng rng(2024);
  std::vector<Vec> states;
  std::size_t expected_fallback = 0;
  for (int k = 0; k < 96; ++k) {
    Vec s = {rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
    if (!monitor.certified(s)) ++expected_fallback;
    states.push_back(std::move(s));
  }
  ASSERT_GT(expected_fallback, 0u);
  ASSERT_LT(expected_fallback, states.size());

  struct BatchSweep {
    std::size_t max_batch;
    long linger_us;
  };
  const std::vector<BatchSweep> batch_sweeps = {
      {1, 0}, {4, 200}, {64, 200}, {16, 50}};
  for (const std::size_t dispatchers : {1u, 2u, 4u}) {
    for (const BatchSweep& sweep : batch_sweeps) {
      serve::ServeConfig config;
      config.max_batch = sweep.max_batch;
      config.max_wait = std::chrono::microseconds(sweep.linger_us);
      config.num_dispatchers = dispatchers;
      config.queue_capacity = 256;  // >> request count: nothing sheds.
      serve::ControllerServer server(config);
      server.register_controller(
          "vdp", student, std::make_shared<MarkerController>(2, 1), monitor);

      // Four submitter threads interleave their requests arbitrarily.
      std::vector<std::future<Vec>> futures(states.size());
      std::vector<std::thread> submitters;
      const std::size_t stripe = states.size() / 4;
      for (std::size_t t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
          const std::size_t lo = t * stripe;
          const std::size_t hi = (t == 3) ? states.size() : lo + stripe;
          for (std::size_t i = lo; i < hi; ++i)
            futures[i] = server.submit("vdp", states[i]);
        });
      }
      for (auto& thread : submitters) thread.join();

      for (std::size_t i = 0; i < states.size(); ++i) {
        const Vec action = futures[i].get();
        const Vec expected = server.act_reference("vdp", states[i]);
        ASSERT_EQ(action.size(), expected.size());
        for (std::size_t c = 0; c < action.size(); ++c)
          ASSERT_EQ(action[c], expected[c])
              << "state " << i << ", max_batch " << sweep.max_batch
              << ", linger " << sweep.linger_us << " us, " << dispatchers
              << " dispatchers";
      }
      server.drain();

      // Counters are exact for any batching: every request took exactly
      // one of the two paths, and everything was admitted.
      const auto counters = server.counters("vdp");
      EXPECT_EQ(counters.fallback, expected_fallback);
      EXPECT_EQ(counters.primary, states.size() - expected_fallback);
      EXPECT_GE(counters.batches, 1u);
      EXPECT_LE(counters.max_batch_rows, sweep.max_batch);
      EXPECT_EQ(counters.accepted, states.size());
      EXPECT_EQ(counters.shed, 0u);
      EXPECT_EQ(counters.rejected, 0u);
      expect_exact_accounting(counters, states.size());
    }
  }
}

TEST(ControllerServer, DrainAnswersEverythingSubmitted) {
  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::microseconds(100);
  serve::ControllerServer server(config);
  const auto student = make_student();
  server.register_controller("vdp", student,
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  std::vector<std::future<Vec>> futures;
  for (int k = 0; k < 40; ++k)
    futures.push_back(server.submit("vdp", {0.01 * k, -0.01 * k}));
  server.drain();
  for (auto& future : futures)
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  EXPECT_EQ(server.counters("vdp").primary, 40u);
  expect_exact_accounting(server.counters("vdp"), 40);
}

TEST(ControllerServer, DrainWithNoTrafficReturnsImmediately) {
  serve::ControllerServer server;
  server.register_controller("vdp", make_student(),
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  server.drain();  // nothing queued, nothing in flight: must not block.
  EXPECT_EQ(server.counters("vdp").primary, 0u);
  EXPECT_EQ(server.counters("vdp").batches, 0u);
  expect_exact_accounting(server.counters("vdp"), 0);
}

TEST(ControllerServer, AllFallbackBatchNeverBuildsAnEmptyGemm) {
  // Every request is uncertified (default monitor certifies nothing), so
  // the drained batches contain zero certified requests.  from_rows({})
  // throws (test_la pins this), so this sweep also proves the dispatcher
  // never assembles an empty GEMM batch when a batch has no certified rows.
  serve::ServeConfig config;
  config.max_batch = 16;
  config.max_wait = std::chrono::microseconds(100);
  serve::ControllerServer server(config);
  server.register_controller("vdp", make_student(),
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor());
  std::vector<std::future<Vec>> futures;
  for (int k = 0; k < 12; ++k)
    futures.push_back(server.submit("vdp", {0.1 * k, -0.1 * k}));
  for (auto& future : futures)
    EXPECT_EQ(future.get(), Vec{MarkerController::kMark});
  server.drain();
  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.fallback, 12u);
  EXPECT_EQ(counters.primary, 0u);
  EXPECT_EQ(counters.batches, 0u);  // the GEMM path never ran.
  expect_exact_accounting(counters, 12);
}

/// Extracts the RejectReason a rejected future carries, failing the test if
/// it resolves to anything but a RejectedError.
serve::RejectReason reject_reason(std::future<Vec> future) {
  try {
    (void)future.get();
  } catch (const serve::RejectedError& error) {
    return error.reason();
  }
  ADD_FAILURE() << "future did not carry a RejectedError";
  return serve::RejectReason::kShutdown;
}

// The pinned submit-after-shutdown contract: submit() on a stopped server
// does NOT throw — it returns a future whose get() throws
// RejectedError(kShutdown), and the rejection shows up in the admission
// counters.  Programmer errors (unknown name, wrong dimension) still throw
// std::invalid_argument synchronously, stopped or not.
TEST(ControllerServer, StopDrainsPendingAndRejectsNewWork) {
  serve::ControllerServer server;
  server.register_controller("vdp", make_student(),
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  auto pending = server.submit("vdp", {0.1, 0.2});
  server.stop();
  EXPECT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(pending.get(), server.act_reference("vdp", {0.1, 0.2}));

  auto rejected = server.submit("vdp", {0.1, 0.2});
  EXPECT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(reject_reason(std::move(rejected)),
            serve::RejectReason::kShutdown);
  EXPECT_THROW((void)server.submit("vdp", {0.1}), std::invalid_argument);
  EXPECT_THROW((void)server.submit("nope", {0.1, 0.2}),
               std::invalid_argument);
  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(counters.shed, 0u);
  expect_exact_accounting(counters, 2);
  server.stop();  // idempotent.
}

TEST(ControllerServer, RegistrationAfterStopThrows) {
  serve::ControllerServer server;
  server.register_controller("a", make_student(),
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  server.stop();
  EXPECT_THROW(
      server.register_controller("b", make_student(),
                                 std::make_shared<MarkerController>(2, 1),
                                 serve::SafetyMonitor::trust_all()),
      std::runtime_error);
}

// --- ControllerServer: admission control / load shedding --------------------

/// Fallback that reports when act() starts and then blocks until released —
/// lets the shed test wedge dispatchers deterministically.
class GateController final : public ctrl::Controller {
 public:
  static constexpr double kGateMark = 7.5;

  GateController(std::shared_ptr<std::atomic<int>> started,
                 std::shared_future<void> release)
      : started_(std::move(started)), release_(std::move(release)) {}

  [[nodiscard]] Vec act(const Vec&) const override {
    started_->fetch_add(1);
    release_.wait();
    return la::constant(1, kGateMark);
  }
  [[nodiscard]] std::size_t state_dim() const override { return 2; }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "gate"; }

 private:
  std::shared_ptr<std::atomic<int>> started_;
  std::shared_future<void> release_;
};

class FullRingsShed : public ::testing::TestWithParam<std::size_t> {};

// Exact load-shedding: wedge every dispatcher inside a blocking fallback,
// fill every ring to its capacity, and verify that each further submission
// sheds with RejectedError(kQueueFull) — with accepted / shed counters
// exact and every accepted request still answered after the dispatchers
// are released.  With more than one dispatcher this pins the admission
// bound at num_dispatchers x ring capacity.
TEST_P(FullRingsShed, WithExactCounters) {
  const std::size_t dispatchers = GetParam();
  constexpr std::size_t kCapacity = 2;
  auto started = std::make_shared<std::atomic<int>>(0);
  std::promise<void> release;
  const std::shared_future<void> release_future =
      release.get_future().share();

  serve::ServeConfig config;
  config.max_batch = 1;  // a wedged batch holds exactly one request.
  config.max_wait = std::chrono::microseconds(0);
  config.num_dispatchers = dispatchers;
  config.queue_capacity = kCapacity;
  serve::ControllerServer server(config);
  server.register_controller(
      "vdp", make_student(),
      std::make_shared<GateController>(started, release_future),
      serve::SafetyMonitor());  // certifies nothing: everything falls back.

  // Submission k's home ring is k mod D, so request d lands on ring d; its
  // dispatcher pops it and blocks in act().  Waiting for `started` to count
  // it proves that ring is empty again.
  std::vector<std::future<Vec>> admitted;
  for (std::size_t d = 0; d < dispatchers; ++d) {
    admitted.push_back(server.submit("vdp", {0.0, 0.0}));
    while (started->load() != static_cast<int>(d + 1))
      std::this_thread::yield();
  }
  // Fill every ring while the dispatchers are wedged...
  for (std::size_t k = 0; k < dispatchers * kCapacity; ++k)
    admitted.push_back(server.submit("vdp", {0.1, 0.1}));
  // ...then overflow them: both submissions must shed immediately.
  EXPECT_EQ(reject_reason(server.submit("vdp", {0.3, 0.3})),
            serve::RejectReason::kQueueFull);
  EXPECT_EQ(reject_reason(server.submit("vdp", {0.4, 0.4})),
            serve::RejectReason::kQueueFull);

  release.set_value();
  const Vec gate_action = la::constant(1, GateController::kGateMark);
  for (auto& future : admitted) EXPECT_EQ(future.get(), gate_action);
  server.drain();

  const std::uint64_t accepted = dispatchers * (1 + kCapacity);
  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.accepted, accepted);
  EXPECT_EQ(counters.shed, 2u);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.fallback, accepted);
  EXPECT_EQ(counters.primary, 0u);
  expect_exact_accounting(counters, accepted + 2);
}

INSTANTIATE_TEST_SUITE_P(Dispatchers, FullRingsShed,
                         ::testing::Values(std::size_t{1}, std::size_t{2}));

// --- serve::MetricsRegistry --------------------------------------------------

TEST(ServeMetrics, HistogramQuantilesInterpolateWithinFixedBuckets) {
  serve::LatencyHistogram histogram;
  EXPECT_EQ(histogram.quantiles().count, 0u);
  for (int k = 0; k < 100; ++k) histogram.record_us(3.0);
  const auto q = histogram.quantiles();
  EXPECT_EQ(q.count, 100u);
  // Every sample lands in the (2, 5] bucket: all quantiles interpolate
  // inside it.
  EXPECT_GT(q.p50_us, 2.0);
  EXPECT_LE(q.p50_us, 5.0);
  EXPECT_GT(q.p999_us, 2.0);
  EXPECT_LE(q.p999_us, 5.0);
  EXPECT_LE(q.p50_us, q.p99_us);
  EXPECT_LE(q.p99_us, q.p999_us);
  EXPECT_EQ(q.max_bound_us, 5.0);

  // Corrupt samples clamp into the first bucket instead of vanishing.
  histogram.record_us(std::numeric_limits<double>::quiet_NaN());
  histogram.record_us(-1.0);
  EXPECT_EQ(histogram.count(), 102u);

  // A spread distribution keeps the quantiles ordered and in range.
  serve::LatencyHistogram spread;
  for (int k = 0; k < 990; ++k) spread.record_us(80.0);    // (50, 100]
  for (int k = 0; k < 10; ++k) spread.record_us(4000.0);   // (2e3, 5e3]
  const auto sq = spread.quantiles();
  EXPECT_GT(sq.p50_us, 50.0);
  EXPECT_LE(sq.p50_us, 100.0);
  EXPECT_GT(sq.p999_us, 2000.0);
  EXPECT_LE(sq.p999_us, 5000.0);
}

TEST(ServeMetrics, RegistryCountersAndSnapshotRates) {
  serve::MetricsRegistry registry;
  serve::Counter* counter = registry.counter("requests");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(registry.counter("requests"), counter);  // stable identity.
  counter->add(5);
  counter->increment();
  EXPECT_EQ(counter->value(), 6u);
  registry.histogram("lat")->record_us(10.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "requests");
  EXPECT_EQ(snap.counters[0].value, 6u);
  EXPECT_GE(snap.counters[0].rate_per_s, 0.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat");
  EXPECT_EQ(snap.histograms[0].q.count, 1u);
  const std::string rendered = snap.format();
  EXPECT_NE(rendered.find("requests"), std::string::npos);
  EXPECT_NE(rendered.find("lat"), std::string::npos);

  // The rate window advances: a second snapshot sees only the delta.
  counter->add(4);
  const auto second = registry.snapshot();
  EXPECT_EQ(second.counters[0].value, 10u);
}

TEST(ServeMetrics, ServerPublishesLatencyRoutingAndAdmissionMetrics) {
  serve::ServeConfig config;
  config.max_batch = 8;
  config.num_dispatchers = 2;
  serve::ControllerServer server(config);
  server.register_controller("vdp", make_student(),
                             std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  std::vector<std::future<Vec>> futures;
  for (int k = 0; k < 20; ++k)
    futures.push_back(server.submit("vdp", {0.01 * k, -0.01 * k}));
  for (auto& future : futures) (void)future.get();
  server.drain();

  const auto snap = server.metrics().snapshot();
  std::uint64_t latency_count = 0;
  for (const auto& h : snap.histograms)
    if (h.name == "serve.vdp.latency_us") latency_count = h.q.count;
  EXPECT_EQ(latency_count, 20u);
  std::uint64_t primary = 0, accepted = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "serve.vdp.primary") primary = c.value;
    if (c.name == "serve.vdp.accepted") accepted = c.value;
  }
  EXPECT_EQ(primary, 20u);
  EXPECT_EQ(accepted, 20u);
  expect_exact_accounting(server.counters("vdp"), 20);
}

TEST(ControllerServer, ServesMultipleControllersIndependently) {
  serve::ServeConfig config;
  config.max_batch = 64;
  config.max_wait = std::chrono::microseconds(200);
  serve::ControllerServer server(config);
  const auto a = make_student(1);
  const auto b = make_student(2);
  server.register_controller("a", a, std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  server.register_controller("b", b, std::make_shared<MarkerController>(2, 1),
                             serve::SafetyMonitor::trust_all());
  const Vec s = {0.2, -0.3};
  auto fa = server.submit("a", s);
  auto fb = server.submit("b", s);
  EXPECT_EQ(fa.get(), a->act(s));
  EXPECT_EQ(fb.get(), b->act(s));
  server.drain();
  // Each controller counts only its own request.
  EXPECT_EQ(server.counters("a").primary, 1u);
  EXPECT_EQ(server.counters("b").primary, 1u);
  expect_exact_accounting(server.counters("a"), 1);
  expect_exact_accounting(server.counters("b"), 1);
}

// --- registry: cached-artifact loading -------------------------------------

TEST(ServeRegistry, LoadsTheCachedStudentBySystemKindSeed) {
  const auto student = make_student();
  ASSERT_FALSE(serve::cached_controller_exists("vanderpol", "studentR", 7));
  EXPECT_THROW(
      (void)serve::load_cached_controller("vanderpol", "studentR", 7, "k*"),
      std::runtime_error);

  const std::string path =
      util::model_cache_path("vanderpol", "studentR", 7, "nnctl");
  student->save_file(path);
  ASSERT_TRUE(serve::cached_controller_exists("vanderpol", "studentR", 7));
  const auto loaded =
      serve::load_cached_controller("vanderpol", "studentR", 7, "k*-served");
  EXPECT_EQ(loaded->describe(), "k*-served");
  util::Rng rng(3);
  for (int k = 0; k < 10; ++k) {
    const Vec s = rng.normal_vec(2);
    EXPECT_EQ(loaded->act(s), student->act(s));
  }
  std::remove(path.c_str());
}

TEST(ServeRegistry, CachePathsCarryTheFormatVersion) {
  const std::string path = util::model_cache_path("sys", "kind", 5, "nnctl");
  EXPECT_NE(path.find("_v" + std::to_string(util::kModelCacheVersion) +
                      "_seed5"),
            std::string::npos);
}

TEST(ServeRegistry, RegistersThePipelineStudentWithExpertFallback) {
  core::PipelineArtifacts artifacts;
  artifacts.system = sys::make_system("vanderpol");
  const auto student = make_student();
  artifacts.robust_student = student;
  artifacts.experts = {std::make_shared<MarkerController>(2, 1)};

  serve::ControllerServer server;
  serve::register_pipeline_student(server, "vdp", artifacts,
                                   serve::SafetyMonitor::inside_box(unit_box()));
  EXPECT_EQ(server.submit("vdp", {0.1, 0.1}).get(), student->act({0.1, 0.1}));
  EXPECT_EQ(server.submit("vdp", {5.0, 5.0}).get(),
            Vec{MarkerController::kMark});
  server.drain();
  const auto counters = server.counters("vdp");
  EXPECT_EQ(counters.primary, 1u);
  EXPECT_EQ(counters.fallback, 1u);
  expect_exact_accounting(counters, 2);

  core::PipelineArtifacts empty;
  EXPECT_THROW(serve::register_pipeline_student(server, "x", empty,
                                                serve::SafetyMonitor()),
               std::invalid_argument);
}

}  // namespace
}  // namespace cocktail
