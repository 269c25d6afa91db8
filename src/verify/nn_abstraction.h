// Bernstein abstraction of a neural-network controller over a state box
// (Section III-C with the ReachNN-style partitioning of [21]):
//
//   κ*(x) ∈ [min_k κ*(x_k), max_k κ*(x_k)] + [-ε̂_p, ε̂_p]   for x ∈ X_p,
//
// p = 1..P, where x_k runs over the Bernstein grid of degrees d on X_p and
// ε̂_p is the grid's covering radius L·‖(w_i/(2·d_i))_i‖₂
// (verify/bernstein.h) — a bound on the samples themselves, not the
// Bernstein polynomial's approximation error.  The partition P and degrees
// d are chosen from the controller's certified Lipschitz constant L so that
// ε̂_p ≤ ε_target; the degrees grow linearly in L, so the per-box work (NN
// samples = Π(d_i+1), partitions) still grows with it, reproducing the
// paper's verifiability ordering (Remark 2); the `VerificationBudget`
// models the resource exhaustion that crashed the paper's κD run (Fig 4)
// as a clean, reportable failure.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "control/nn_controller.h"
#include "verify/bernstein.h"
#include "verify/ibp.h"
#include "verify/interval.h"

namespace cocktail::util {
class ThreadPool;  // util/thread_pool.h; only held by pointer here.
}

namespace cocktail::verify {

/// Work accounting shared by a whole verification run.
struct VerificationBudget {
  long max_nn_evaluations = 50'000'000;  ///< total NN forward passes.
  long max_partitions = 2'000'000;       ///< total boxes abstracted.
  long nn_evaluations = 0;
  long partitions = 0;

  [[nodiscard]] bool exhausted() const {
    return nn_evaluations > max_nn_evaluations ||
           partitions > max_partitions;
  }
};

/// Thrown when the budget runs out (the analogue of the paper's
/// memory-exhaustion failure for the high-Lipschitz student).
class BudgetExhausted : public std::runtime_error {
 public:
  explicit BudgetExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

/// The budgeted sweep behind reachability and invariant sets: the same
/// counters and the same exception as
///
///   for (i = 0; i < count; ++i) item(i, budget);
///
/// for any `pool` (nullptr = serial).  Items run on the pool in fixed
/// waves, each against a private budget capped at what remained when its
/// wave started, and their costs merge into `budget` in index order.  The
/// first item that throws, or whose merged cost exhausts the budget, is
/// re-run against `budget` itself, which stops where the serial loop stops
/// and rethrows its exception; the items past it are discarded.
///
/// Items must behave like NnAbstraction::enclose: their work and output do
/// not depend on the budget they are given, except that they charge it and
/// then throw BudgetExhausted once it is exhausted.  An item may run twice
/// and concurrently with other items, so each writes only its own output.
void sweep_in_order(
    util::ThreadPool* pool, std::size_t count, VerificationBudget& budget,
    const std::function<void(std::size_t, VerificationBudget&)>& item);

/// Which enclosure engine abstracts the controller over a box.
enum class AbstractionMethod {
  kBernstein,            ///< Bernstein-grid samples ± their covering radius.
  kIntervalPropagation,  ///< IBP through the network layers (Verisig-style).
  kHybrid,               ///< both, intersected (tightest, costs the sum).
};

struct AbstractionConfig {
  AbstractionMethod method = AbstractionMethod::kBernstein;
  double epsilon_target = 0.5;  ///< ε on each control output.
  int max_degree = 6;           ///< per-dimension Bernstein degree cap.
  int max_partition_depth = 8;  ///< bisection depth cap per query box.
};

struct ControlEnclosure {
  IBox u_range;          ///< per-output interval (already includes ±ε).
  double epsilon = 0.0;  ///< max sample covering radius used (0 for IBP).
  int partitions = 0;    ///< boxes used for this query.
  long nn_evaluations = 0;
};

/// Abstracts one controller over query boxes.  The controller must provide
/// a non-negative certified Lipschitz bound (NN and polynomial controllers
/// do; the mixed design does not — matching the paper's statement that AW
/// "cannot be verified with current tools").
class NnAbstraction {
 public:
  /// Throws std::invalid_argument when the controller has no certified
  /// Lipschitz bound, when `config.max_degree` < 1, or when
  /// `config.epsilon_target` is not finite and positive.
  NnAbstraction(const ctrl::Controller& controller, AbstractionConfig config);

  /// Interval enclosure of clip(κ(x), U) for x ∈ box.  `control_bounds`
  /// applies the feasibility clip (pass an unbounded box to skip).
  /// Accounts all work against `budget`; throws BudgetExhausted.
  [[nodiscard]] ControlEnclosure enclose(const IBox& box,
                                         const IBox& control_bounds,
                                         VerificationBudget& budget) const;

  [[nodiscard]] double lipschitz() const noexcept { return lipschitz_; }
  [[nodiscard]] const AbstractionConfig& config() const noexcept {
    return config_;
  }

 private:
  void enclose_recursive(const IBox& box, int depth, ControlEnclosure& out,
                         VerificationBudget& budget) const;
  /// IBP enclosure of the controller output over the box (only available
  /// for NnController subjects; the constructor falls back to Bernstein
  /// otherwise).
  [[nodiscard]] IBox ibp_output(const IBox& box) const;
  /// κ at each of the `rows` row-major `points`: rows x control_dim values,
  /// row-major.  NnController subjects run one batched
  /// nn::Mlp::forward_rows call; other controllers take one act() per
  /// point.  Both give the bits act() gives.
  [[nodiscard]] std::vector<double> sample_grid(
      const std::vector<double>& points, std::size_t rows) const;

  const ctrl::Controller& controller_;
  AbstractionConfig config_;
  double lipschitz_;
  /// Set when the controller is an NnController (enables IBP / hybrid and
  /// batched Bernstein sampling).
  const nn::Mlp* net_ = nullptr;
  la::Vec out_scale_;
};

}  // namespace cocktail::verify
