// Tests for the NN-controller Bernstein abstraction: enclosure soundness,
// clipping, Lipschitz-driven cost growth, the budget failure mode that
// reproduces the paper's κD blow-up, and the budgeted sweep that stops
// where a serial loop stops for any pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/nn_controller.h"
#include "control/mixed_controller.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "verify/nn_abstraction.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::IBox;
using verify::Interval;

ctrl::NnController make_controller(std::uint64_t seed, double scale = 1.0) {
  nn::Mlp net = nn::Mlp::make(2, {12, 12}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, seed);
  return {std::move(net), {scale}, "k" + std::to_string(seed)};
}

IBox unbounded_u() {
  return {Interval(-1e18, 1e18)};
}

/// Hides an NnController behind the plain Controller interface, so the
/// abstraction cannot see the network and samples it one act() per point.
class OpaqueController final : public ctrl::Controller {
 public:
  explicit OpaqueController(const ctrl::NnController& inner) : inner_(inner) {}
  [[nodiscard]] Vec act(const Vec& s) const override { return inner_.act(s); }
  [[nodiscard]] std::size_t state_dim() const override {
    return inner_.state_dim();
  }
  [[nodiscard]] std::size_t control_dim() const override {
    return inner_.control_dim();
  }
  [[nodiscard]] std::string describe() const override { return "opaque"; }
  [[nodiscard]] double lipschitz_bound() const override {
    return inner_.lipschitz_bound();
  }

 private:
  const ctrl::NnController& inner_;
};

TEST(NnAbstraction, EnclosureContainsSampledOutputs) {
  // Soundness property over several networks and boxes.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto controller = make_controller(seed);
    verify::AbstractionConfig config;
    config.epsilon_target = 0.3;
    const verify::NnAbstraction abstraction(controller, config);
    verify::VerificationBudget budget;
    const IBox box = verify::make_box({-0.4, -0.2}, {0.1, 0.5});
    const auto enclosure = abstraction.enclose(box, unbounded_u(), budget);
    util::Rng rng(seed * 91);
    for (int k = 0; k < 300; ++k) {
      const Vec x = {rng.uniform(-0.4, 0.1), rng.uniform(-0.2, 0.5)};
      const double u = controller.act(x)[0];
      EXPECT_TRUE(enclosure.u_range[0].contains(u))
          << "seed " << seed << ": " << u << " not in "
          << enclosure.u_range[0].to_string();
    }
    EXPECT_LE(enclosure.epsilon, config.epsilon_target + 1e-12);
  }
}

TEST(NnAbstraction, AppliesControlClip) {
  const auto controller = make_controller(3, /*scale=*/100.0);
  verify::AbstractionConfig config;
  config.epsilon_target = 5.0;
  const verify::NnAbstraction abstraction(controller, config);
  verify::VerificationBudget budget;
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  const IBox u_bounds = {Interval(-20.0, 20.0)};
  const auto enclosure = abstraction.enclose(box, u_bounds, budget);
  EXPECT_GE(enclosure.u_range[0].lo(), -20.0);
  EXPECT_LE(enclosure.u_range[0].hi(), 20.0);
}

TEST(NnAbstraction, CostGrowsWithLipschitzConstant) {
  // Remark 2's mechanism: larger Lipschitz constant -> more partitions and
  // NN evaluations at the same epsilon.  Single linear layers give exactly
  // known constants L = 1 and L = 8.
  auto make_linear = [](double weight) {
    nn::Mlp net = nn::Mlp::make(2, {}, 1, nn::Activation::kTanh,
                                nn::Activation::kIdentity, 1);
    net.layers()[0].w(0, 0) = weight;
    net.layers()[0].w(0, 1) = 0.0;
    net.layers()[0].b[0] = 0.0;
    return ctrl::NnController(std::move(net), {1.0}, "lin");
  };
  const auto small = make_linear(1.0);
  const auto large = make_linear(8.0);
  ASSERT_NEAR(small.lipschitz_bound(), 1.0, 1e-9);
  ASSERT_NEAR(large.lipschitz_bound(), 8.0, 1e-9);
  verify::AbstractionConfig config;
  config.epsilon_target = 0.5;
  config.max_degree = 6;
  config.max_partition_depth = 16;
  const verify::NnAbstraction abs_small(small, config);
  const verify::NnAbstraction abs_large(large, config);
  verify::VerificationBudget budget_small, budget_large;
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  (void)abs_small.enclose(box, unbounded_u(), budget_small);
  (void)abs_large.enclose(box, unbounded_u(), budget_large);
  EXPECT_GT(budget_large.nn_evaluations, budget_small.nn_evaluations);
  EXPECT_GT(budget_large.partitions, budget_small.partitions);
}

TEST(NnAbstraction, BudgetExhaustionThrows) {
  const auto controller = make_controller(9, 50.0);  // huge L.
  verify::AbstractionConfig config;
  config.epsilon_target = 0.05;
  config.max_degree = 3;
  config.max_partition_depth = 20;
  const verify::NnAbstraction abstraction(controller, config);
  verify::VerificationBudget budget;
  budget.max_nn_evaluations = 500;  // tiny budget.
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  EXPECT_THROW((void)abstraction.enclose(box, unbounded_u(), budget),
               verify::BudgetExhausted);
}

TEST(NnAbstraction, RejectsUncertifiedControllers) {
  // The mixed design AW has no Lipschitz bound: abstraction must refuse it,
  // mirroring the paper ("the mixed controller cannot be verified").
  auto inner = std::make_shared<ctrl::NnController>(make_controller(11));
  nn::Mlp weight_net = nn::Mlp::make(2, {4}, 1, nn::Activation::kTanh,
                                     nn::Activation::kTanh, 12);
  const ctrl::MixedController mixed(
      {inner}, std::move(weight_net), 1.5,
      sys::Box::symmetric(1, 20.0));
  EXPECT_THROW(verify::NnAbstraction(mixed, {}), std::invalid_argument);
}

TEST(NnAbstraction, RejectsConfigsThatCannotBoundTheError) {
  // No partition can meet a degree cap below 1 (degrees_for would clamp
  // into an empty range); ε <= 0 would send every query to the depth cap,
  // and a NaN ε would switch the split test off.
  const auto controller = make_controller(4);
  const auto rejects = [&](const verify::AbstractionConfig& config) {
    EXPECT_THROW(verify::NnAbstraction(controller, config),
                 std::invalid_argument);
  };
  for (const auto method : {verify::AbstractionMethod::kBernstein,
                            verify::AbstractionMethod::kIntervalPropagation,
                            verify::AbstractionMethod::kHybrid}) {
    verify::AbstractionConfig config;
    config.method = method;
    for (const int cap : {0, -1}) {
      config.max_degree = cap;
      rejects(config);
    }
    config.max_degree = 6;
    for (const double eps : {0.0, -0.1, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
      config.epsilon_target = eps;
      rejects(config);
    }
  }
}

TEST(NnAbstraction, NanSampleFailsClosed) {
  // A controller that returns NaN at one grid point has no enclosure: the
  // min/max over the samples must not drop the NaN and certify the rest.
  class NanAtOrigin final : public ctrl::Controller {
   public:
    [[nodiscard]] Vec act(const Vec& s) const override {
      return {s[0] == 0.0 ? std::nan("") : s[0]};
    }
    [[nodiscard]] std::size_t state_dim() const override { return 1; }
    [[nodiscard]] std::size_t control_dim() const override { return 1; }
    [[nodiscard]] std::string describe() const override { return "nan"; }
    [[nodiscard]] double lipschitz_bound() const override { return 1.0; }
  };
  const NanAtOrigin controller;
  verify::AbstractionConfig config;
  config.epsilon_target = 0.3;  // degree 4 on [-1, 1]: 0 is a grid point.
  config.max_partition_depth = 0;
  verify::VerificationBudget budget;
  const auto enclosure = verify::NnAbstraction(controller, config)
                             .enclose(verify::make_box({-1.0}, {1.0}), {},
                                      budget);
  EXPECT_FALSE(enclosure.u_range[0].valid())
      << enclosure.u_range[0].to_string();
}

TEST(NnAbstraction, BatchedSamplingMatchesPerPointAct) {
  // An NnController is sampled in one batched forward per partition; the
  // same network behind an opaque Controller takes one act() per point.
  // Enclosures, epsilon and the work counters must agree bit for bit: a
  // 3-D net at degree 10 (1331 rows per partition, not a multiple of the
  // row tile) and a 2-output net with per-output scales.
  struct Case {
    ctrl::NnController controller;
    IBox box;
    int max_partition_depth;
  };
  std::vector<Case> cases;
  cases.push_back(
      {ctrl::NnController(nn::Mlp::make(3, {16}, 1, nn::Activation::kTanh,
                                        nn::Activation::kIdentity, 21),
                          {1.5}, "3d"),
       verify::make_box({-0.5, -0.2, 0.0}, {0.3, 0.4, 0.6}), 1});
  cases.push_back(
      {ctrl::NnController(nn::Mlp::make(2, {12, 12}, 2,
                                        nn::Activation::kTanh,
                                        nn::Activation::kIdentity, 22),
                          {2.0, -0.5}, "2out"),
       verify::make_box({-1.0, -1.0}, {1.0, 1.0}), 3});
  for (const Case& c : cases) {
    verify::AbstractionConfig config;
    config.epsilon_target = 1e-3;  // the degree cap binds everywhere.
    config.max_degree = 10;
    config.max_partition_depth = c.max_partition_depth;
    const OpaqueController opaque(c.controller);
    verify::VerificationBudget batched_budget, opaque_budget;
    const auto batched = verify::NnAbstraction(c.controller, config)
                             .enclose(c.box, {}, batched_budget);
    const auto per_point =
        verify::NnAbstraction(opaque, config).enclose(c.box, {}, opaque_budget);
    SCOPED_TRACE(c.controller.describe());
    ASSERT_EQ(batched.u_range.size(), per_point.u_range.size());
    for (std::size_t i = 0; i < batched.u_range.size(); ++i) {
      EXPECT_EQ(batched.u_range[i].lo(), per_point.u_range[i].lo()) << i;
      EXPECT_EQ(batched.u_range[i].hi(), per_point.u_range[i].hi()) << i;
    }
    EXPECT_EQ(batched.epsilon, per_point.epsilon);
    EXPECT_EQ(batched.partitions, per_point.partitions);
    EXPECT_EQ(batched.nn_evaluations, per_point.nn_evaluations);
    EXPECT_EQ(batched_budget.nn_evaluations, opaque_budget.nn_evaluations);
    EXPECT_EQ(batched_budget.partitions, opaque_budget.partitions);
    // Π(d_i + 1) × control_dim per partition.
    std::size_t grid = 1;
    for (std::size_t d = 0; d < c.box.size(); ++d) grid *= 11;
    EXPECT_EQ(batched.nn_evaluations,
              static_cast<long>(grid * c.controller.control_dim()) *
                  batched.partitions);
  }
}

TEST(NnAbstraction, TighterEpsilonNeedsMoreWork) {
  const auto controller = make_controller(13, 2.0);
  const IBox box = verify::make_box({-1.0, -1.0}, {1.0, 1.0});
  verify::AbstractionConfig loose;
  loose.epsilon_target = 1.0;
  verify::AbstractionConfig tight;
  tight.epsilon_target = 0.1;
  verify::VerificationBudget b_loose, b_tight;
  (void)verify::NnAbstraction(controller, loose)
      .enclose(box, unbounded_u(), b_loose);
  (void)verify::NnAbstraction(controller, tight)
      .enclose(box, unbounded_u(), b_tight);
  EXPECT_GT(b_tight.nn_evaluations, b_loose.nn_evaluations);
}

/// Sweep item i of a fake workload: (1 + i % 3) partitions of
/// (1 + 7i % 5) evaluations each, charged to the budget and checked the
/// way NnAbstraction::enclose charges and checks them.
void fake_item(std::size_t i, verify::VerificationBudget& budget) {
  for (std::size_t p = 0; p <= i % 3; ++p) {
    budget.partitions += 1;
    budget.nn_evaluations += static_cast<long>(1 + (7 * i) % 5);
    if (budget.exhausted()) throw verify::BudgetExhausted(std::to_string(i));
  }
}

/// The budget counters a run leaves and the exception it throws, as
/// "<type>:<index>" (empty when the run completes).
struct SweepOutcome {
  long nn_evaluations = 0;
  long partitions = 0;
  std::string thrown;
};

template <class Run>
SweepOutcome run_sweep(verify::VerificationBudget budget, const Run& run) {
  SweepOutcome out;
  try {
    run(budget);
  } catch (const verify::BudgetExhausted& e) {
    out.thrown = std::string("budget:") + e.what();
  } catch (const std::invalid_argument& e) {
    out.thrown = std::string("invalid:") + e.what();
  }
  out.nn_evaluations = budget.nn_evaluations;
  out.partitions = budget.partitions;
  return out;
}

/// Checks sweep_in_order against the plain serial loop on `budget`, for
/// no pool and pools of 2 and 8 workers.
void expect_serial_outcome(
    std::size_t count, const verify::VerificationBudget& budget,
    const std::function<void(std::size_t, verify::VerificationBudget&)>&
        item) {
  static util::ThreadPool two(2), eight(8);
  const SweepOutcome serial =
      run_sweep(budget, [&](verify::VerificationBudget& b) {
        for (std::size_t i = 0; i < count; ++i) item(i, b);
      });
  util::ThreadPool* const pools[] = {nullptr, &two, &eight};
  for (util::ThreadPool* pool : pools) {
    const SweepOutcome swept =
        run_sweep(budget, [&](verify::VerificationBudget& b) {
          verify::sweep_in_order(pool, count, b, item);
        });
    const std::size_t workers = pool == nullptr ? 1 : pool->size();
    EXPECT_EQ(swept.thrown, serial.thrown) << workers << " workers";
    EXPECT_EQ(swept.nn_evaluations, serial.nn_evaluations)
        << workers << " workers";
    EXPECT_EQ(swept.partitions, serial.partitions) << workers << " workers";
  }
}

TEST(SweepInOrder, StopsWhereTheSerialLoopStopsAtEveryCap) {
  constexpr std::size_t kItems = 150;  // two full sweep waves and a part.
  const SweepOutcome total = run_sweep({}, [](verify::VerificationBudget& b) {
    for (std::size_t i = 0; i < kItems; ++i) fake_item(i, b);
  });
  ASSERT_TRUE(total.thrown.empty());
  for (long cap = 0; cap <= total.nn_evaluations + 1; ++cap) {
    SCOPED_TRACE("max_nn_evaluations " + std::to_string(cap));
    verify::VerificationBudget budget;
    budget.max_nn_evaluations = cap;
    expect_serial_outcome(kItems, budget, fake_item);
  }
  for (long cap = 0; cap <= total.partitions + 1; ++cap) {
    SCOPED_TRACE("max_partitions " + std::to_string(cap));
    verify::VerificationBudget budget;
    budget.max_partitions = cap;
    expect_serial_outcome(kItems, budget, fake_item);
  }
}

TEST(SweepInOrder, PropagatesAnItemsExceptionFromTheSameIndex) {
  // An item that fails for a reason of its own, after charging its work,
  // must surface from the same index with the serial loop's counters.
  for (const std::size_t bad : {0, 5, 63, 64, 149}) {
    SCOPED_TRACE(bad);
    const auto item = [bad](std::size_t i, verify::VerificationBudget& b) {
      fake_item(i, b);
      if (i == bad) throw std::invalid_argument(std::to_string(i));
    };
    expect_serial_outcome(150, {}, item);
  }
}

TEST(SweepInOrder, StopsWhereTheSerialLoopStopsAtWindowEdgeCounts) {
  // One item, exactly one 64-item window, one item past it, and many
  // windows, each at caps that stop in the first item, around the end of
  // the first window, half way, at the last item, and never.
  for (const std::size_t count : {1u, 64u, 65u, 1000u}) {
    SCOPED_TRACE("count " + std::to_string(count));
    const auto serial_total = [count](verify::VerificationBudget& b) {
      for (std::size_t i = 0; i < count; ++i) fake_item(i, b);
    };
    const SweepOutcome total = run_sweep({}, serial_total);
    const SweepOutcome window =
        run_sweep({}, [](verify::VerificationBudget& b) {
          for (std::size_t i = 0; i < 64; ++i) fake_item(i, b);
        });
    for (const long cap :
         {0L, 1L, window.nn_evaluations - 1, window.nn_evaluations,
          window.nn_evaluations + 1, total.nn_evaluations / 2,
          total.nn_evaluations - 1, total.nn_evaluations}) {
      SCOPED_TRACE("max_nn_evaluations " + std::to_string(cap));
      verify::VerificationBudget budget;
      budget.max_nn_evaluations = cap;
      expect_serial_outcome(count, budget, fake_item);
    }
    for (const long cap : {0L, window.partitions, total.partitions - 1}) {
      SCOPED_TRACE("max_partitions " + std::to_string(cap));
      verify::VerificationBudget budget;
      budget.max_partitions = cap;
      expect_serial_outcome(count, budget, fake_item);
    }
  }
}

/// The index a fake_item sweep stopped at, from its exception message.
std::size_t stop_index(const SweepOutcome& outcome) {
  return std::stoul(outcome.thrown.substr(outcome.thrown.find(':') + 1));
}

TEST(SweepInOrder, CommitsInIndexOrderWhenTheFirstItemFinishesLast) {
  // Item 0 holds the frontier: the first time it runs it waits until the
  // other 63 items of the window have finished, so every other cost is
  // recorded before any can commit.  The counters and the stop must still
  // be the serial loop's.
  constexpr std::size_t kItems = 64;
  const SweepOutcome total = run_sweep({}, [](verify::VerificationBudget& b) {
    for (std::size_t i = 0; i < kItems; ++i) fake_item(i, b);
  });
  util::ThreadPool two(2), eight(8);
  for (util::ThreadPool* pool : {&two, &eight}) {
    for (long cap = 0; cap <= total.nn_evaluations + 1; cap += 9) {
      SCOPED_TRACE(std::to_string(pool->size()) + " workers, cap " +
                   std::to_string(cap));
      verify::VerificationBudget budget;
      budget.max_nn_evaluations = cap;
      const SweepOutcome serial =
          run_sweep(budget, [](verify::VerificationBudget& b) {
            for (std::size_t i = 0; i < kItems; ++i) fake_item(i, b);
          });
      std::atomic<std::size_t> finished{0};
      std::atomic<bool> held{false}, last{false};
      const auto item = [&](std::size_t i, verify::VerificationBudget& b) {
        if (i == 0 && !held.exchange(true)) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (finished.load() < kItems - 1 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          last = finished.load() == kItems - 1;
        }
        const auto count_finish = [&] { finished.fetch_add(1); };
        try {
          fake_item(i, b);
        } catch (...) {
          count_finish();
          throw;
        }
        count_finish();
      };
      const SweepOutcome swept =
          run_sweep(budget, [&](verify::VerificationBudget& b) {
            verify::sweep_in_order(pool, kItems, b, item);
          });
      EXPECT_TRUE(last.load()) << "item 0 did not finish last";
      EXPECT_EQ(swept.thrown, serial.thrown);
      EXPECT_EQ(swept.nn_evaluations, serial.nn_evaluations);
      EXPECT_EQ(swept.partitions, serial.partitions);
    }
  }
}

TEST(SweepInOrder, StartsAtMostOneWindowOfItemsPastTheStop) {
  // Whatever the scheduling, items start at most 64 indices past the
  // commit frontier, which never passes the stop: the work a stopping
  // sweep wastes is bounded by one window plus the items already in
  // flight, one per participant.
  constexpr std::size_t kItems = 1000;
  const SweepOutcome total = run_sweep({}, [](verify::VerificationBudget& b) {
    for (std::size_t i = 0; i < kItems; ++i) fake_item(i, b);
  });
  util::ThreadPool two(2), eight(8);
  for (util::ThreadPool* pool : {&two, &eight}) {
    for (const long cap : {0L, 100L, total.nn_evaluations / 3,
                           total.nn_evaluations - 1}) {
      SCOPED_TRACE(std::to_string(pool->size()) + " workers, cap " +
                   std::to_string(cap));
      verify::VerificationBudget budget;
      budget.max_nn_evaluations = cap;
      const SweepOutcome serial =
          run_sweep(budget, [](verify::VerificationBudget& b) {
            for (std::size_t i = 0; i < kItems; ++i) fake_item(i, b);
          });
      ASSERT_FALSE(serial.thrown.empty());
      const std::size_t stop = stop_index(serial);
      std::atomic<std::size_t> past{0};
      std::atomic<bool> held{false};
      const auto item = [&](std::size_t i, verify::VerificationBudget& b) {
        if (i > stop) past.fetch_add(1);
        // The stopping item is slow the first time it runs, so the other
        // participants run ahead as far as the sweep lets them.
        if (i == stop && !held.exchange(true))
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        fake_item(i, b);
      };
      const SweepOutcome swept =
          run_sweep(budget, [&](verify::VerificationBudget& b) {
            verify::sweep_in_order(pool, kItems, b, item);
          });
      EXPECT_EQ(swept.thrown, serial.thrown);
      EXPECT_EQ(swept.nn_evaluations, serial.nn_evaluations);
      EXPECT_LE(past.load(), 64 + pool->size());
    }
  }
}

}  // namespace
}  // namespace cocktail
