#include "verify/nn_abstraction.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace cocktail::verify {
namespace {

using SweepItem = std::function<void(std::size_t, VerificationBudget&)>;

/// How far past the commit frontier a sweep item may start.  Results never
/// depend on it (or on the worker count); it bounds the work a sweep that
/// stops wastes past its stop index, at most kSweepWindow - 1 items, and
/// the costs of the items in flight fit one ring of this many slots.
constexpr std::size_t kSweepWindow = 64;

/// One pool region of sweep_in_order over the items [first, count).  Each
/// participant claims the next index, waits until it lies within
/// kSweepWindow of the frontier, runs the item against a private cap (what
/// the committed prefix leaves of the budget), then merges every finished
/// cost at the frontier into the budget in index order.  The first item
/// that threw, or whose merged cost exhausts the budget, becomes the stop
/// index: its cost stays out and nothing is claimed after it.
class SweepRegion {
 public:
  SweepRegion(std::size_t first, std::size_t count, VerificationBudget& budget,
              const SweepItem& item)
      : count_(count), budget_(budget), item_(item), next_(first),
        frontier_(first), stop_(count) {}

  /// One participant's claim-run-commit loop; returns once every item is
  /// claimed or the sweep has stopped.
  void participate() COCKTAIL_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (stop_ == count_ && next_ < count_) {
      const std::size_t i = next_++;
      advanced_.wait(lock, [&]() COCKTAIL_REQUIRES(mutex_) {
        return i < frontier_ + kSweepWindow || stop_ != count_;
      });
      if (stop_ != count_) return;
      VerificationBudget cap;
      cap.max_nn_evaluations =
          budget_.max_nn_evaluations - budget_.nn_evaluations;
      cap.max_partitions = budget_.max_partitions - budget_.partitions;
      lock.Unlock();
      bool failed = false;
      try {
        item_(i, cap);
      } catch (...) {
        failed = true;  // reproduced by sweep_in_order's re-run.
      }
      lock.Lock();
      slots_[i % kSweepWindow] = {cap.nn_evaluations, cap.partitions, true,
                                  failed};
      if (commit()) advanced_.notify_all();
    }
  }

  /// The stop index, or the item count when every item committed.  Read
  /// after the region.
  [[nodiscard]] std::size_t stop() COCKTAIL_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return stop_;
  }

 private:
  struct Cost {
    long nn_evaluations = 0;
    long partitions = 0;
    bool done = false;
    bool failed = false;  ///< threw, e.g. on its private cap.
  };

  /// Merges the finished costs at the frontier; true when the frontier
  /// moved or the sweep stopped.
  bool commit() COCKTAIL_REQUIRES(mutex_) {
    const std::size_t before = frontier_;
    while (stop_ == count_ && frontier_ < count_) {
      Cost& cost = slots_[frontier_ % kSweepWindow];
      if (!cost.done) break;
      cost.done = false;
      if (!cost.failed) {
        budget_.nn_evaluations += cost.nn_evaluations;
        budget_.partitions += cost.partitions;
        if (!budget_.exhausted()) {
          ++frontier_;
          continue;
        }
        budget_.nn_evaluations -= cost.nn_evaluations;
        budget_.partitions -= cost.partitions;
      }
      stop_ = frontier_;
    }
    return frontier_ != before || stop_ != count_;
  }

  const std::size_t count_;
  VerificationBudget& budget_;  ///< written only under mutex_.
  const SweepItem& item_;
  util::Mutex mutex_;
  util::CondVar advanced_;
  std::size_t next_ COCKTAIL_GUARDED_BY(mutex_);      ///< next to claim.
  std::size_t frontier_ COCKTAIL_GUARDED_BY(mutex_);  ///< first uncommitted.
  std::size_t stop_ COCKTAIL_GUARDED_BY(mutex_);
  /// Item i's cost, from its finish until it commits, in slot i mod
  /// kSweepWindow: an item starts only once the one kSweepWindow before it
  /// has committed.
  Cost slots_[kSweepWindow] COCKTAIL_GUARDED_BY(mutex_) = {};
};

}  // namespace

void sweep_in_order(util::ThreadPool* pool, std::size_t count,
                    VerificationBudget& budget, const SweepItem& item) {
  for (std::size_t first = 0; first < count;) {
    SweepRegion region(first, count, budget, item);
    // One participant per worker plus the caller.
    util::run_chunks(pool, pool != nullptr ? pool->size() + 1 : 1,
                     [&](std::size_t) { region.participate(); });
    const std::size_t stop = region.stop();
    if (stop == count) return;
    // The serial loop's run of the stopping item, against the budget the
    // items before it left: it throws where that loop throws.
    item(stop, budget);
    first = stop + 1;
  }
}

NnAbstraction::NnAbstraction(const ctrl::Controller& controller,
                             AbstractionConfig config)
    : controller_(controller), config_(config),
      lipschitz_(controller.lipschitz_bound()) {
  if (config_.max_degree < 1)
    throw std::invalid_argument("NnAbstraction: max_degree must be >= 1");
  if (!std::isfinite(config_.epsilon_target) || config_.epsilon_target <= 0.0)
    throw std::invalid_argument(
        "NnAbstraction: epsilon_target must be finite and positive");
  if (lipschitz_ < 0.0)
    throw std::invalid_argument(
        "NnAbstraction: controller '" + controller.describe() +
        "' has no certified Lipschitz bound and cannot be abstracted");
  if (const auto* as_nn =
          dynamic_cast<const ctrl::NnController*>(&controller)) {
    net_ = &as_nn->net();
    out_scale_ = as_nn->out_scale();
  } else if (config_.method != AbstractionMethod::kBernstein) {
    // IBP needs the network weights; non-NN subjects (e.g. polynomial
    // controllers) fall back to the sampling-based Bernstein engine.
    config_.method = AbstractionMethod::kBernstein;
  }
}

IBox NnAbstraction::ibp_output(const IBox& box) const {
  IBox out = ibp_enclose(*net_, box);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = out[i] * out_scale_[i];
  return out;
}

void NnAbstraction::sample_grid(const std::vector<double>& points,
                                std::size_t rows,
                                std::vector<double>& values) const {
  const std::size_t outputs = controller_.control_dim();
  values.resize(rows * outputs);
  if (net_ != nullptr) {
    // act(x) = out_scale ∘ net(x): the batched rows are bitwise identical
    // to forward(x), and the scale is the same product act() takes.
    net_->forward_rows(points.data(), rows, values.data());
    for (std::size_t j = 0; j < rows; ++j)
      for (std::size_t o = 0; o < outputs; ++o)
        values[j * outputs + o] *= out_scale_[o];
    return;
  }
  const std::size_t n = points.size() / rows;
  la::Vec x(n);
  for (std::size_t j = 0; j < rows; ++j) {
    std::copy_n(points.begin() + static_cast<std::ptrdiff_t>(j * n), n,
                x.begin());
    const la::Vec u = controller_.act(x);
    std::copy_n(u.begin(), outputs,
                values.begin() + static_cast<std::ptrdiff_t>(j * outputs));
  }
}

ControlEnclosure NnAbstraction::enclose(const IBox& box,
                                        const IBox& control_bounds,
                                        VerificationBudget& budget) const {
  ControlEnclosure out;
  out.u_range.assign(controller_.control_dim(),
                     Interval(std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()));
  enclose_recursive(box, 0, out, budget);
  if (control_bounds.size() == out.u_range.size())
    for (std::size_t i = 0; i < out.u_range.size(); ++i)
      out.u_range[i] = out.u_range[i].clamp_to(control_bounds[i]);
  return out;
}

void NnAbstraction::enclose_recursive(const IBox& box, int depth,
                                      ControlEnclosure& out,
                                      VerificationBudget& budget) const {
  // The leaf's degrees, grid points and samples live in per-thread buffers
  // that grow to the largest leaf and are then reused: a box that splits
  // is done with its degrees before its halves overwrite them.
  thread_local std::vector<int> degrees;
  thread_local std::vector<double> points, values;
  // Partition-refinement criterion.  Bernstein/hybrid split while the
  // capped degree cannot bring the grid's covering radius down to the
  // target ε; pure IBP has no degrees, so the Lipschitz width proxy
  // (L/2)·Σ wᵢ plays the same role.
  double achieved = 0.0;
  if (config_.method == AbstractionMethod::kIntervalPropagation) {
    double width_sum = 0.0;
    for (const Interval& side : box) width_sum += side.width();
    achieved = 0.5 * lipschitz_ * width_sum;
  } else {
    achieved = BernsteinPoly::degrees_for(
        lipschitz_, box, config_.epsilon_target, config_.max_degree, degrees);
  }
  if (achieved > config_.epsilon_target &&
      depth < config_.max_partition_depth) {
    // Halve the widest dimension and recurse — widths shrink, so the bound
    // eventually fits (or depth caps out).
    auto [left, right] = box_bisect(box);
    enclose_recursive(left, depth + 1, out, budget);
    enclose_recursive(right, depth + 1, out, budget);
    return;
  }

  const bool use_bernstein =
      config_.method != AbstractionMethod::kIntervalPropagation;
  const bool use_ibp =
      config_.method != AbstractionMethod::kBernstein && net_ != nullptr;

  const std::size_t outputs = controller_.control_dim();
  std::size_t grid_points = 0;
  if (use_bernstein) {
    grid_points = 1;
    for (int d : degrees) grid_points *= static_cast<std::size_t>(d + 1);
  }
  std::size_t samples = grid_points * outputs;
  // One IBP pass costs about two forward passes of interval arithmetic.
  if (use_ibp) samples += 2;
  budget.partitions += 1;
  budget.nn_evaluations += static_cast<long>(samples);
  if (budget.exhausted())
    throw BudgetExhausted(
        "verification budget exhausted while abstracting '" +
        controller_.describe() + "' (partitions=" +
        std::to_string(budget.partitions) + ", nn_evals=" +
        std::to_string(budget.nn_evaluations) + ")");

  out.partitions += 1;
  out.nn_evaluations += static_cast<long>(samples);
  out.epsilon = std::max(out.epsilon, use_bernstein ? achieved : 0.0);

  IBox ibp_box;
  if (use_ibp) ibp_box = ibp_output(box);

  // Every control output samples the same grid: evaluate it once and
  // give each output its column of the rows x outputs values.
  if (use_bernstein) {
    BernsteinPoly::grid(box, degrees, points);
    sample_grid(points, grid_points, values);
  }
  for (std::size_t dim = 0; dim < outputs; ++dim) {
    Interval enclosure;
    if (use_bernstein) {
      // [min, max] of the output's column, widened by the covering radius
      // (outward-rounded).  A NaN sample sticks in both ends, so a
      // corrupted network yields an invalid enclosure and fails closed.
      double lo = values[dim];
      double hi = lo;
      for (std::size_t j = 1; j < grid_points; ++j) {
        const double v = values[j * outputs + dim];
        lo = std::isnan(v) ? v : std::min(lo, v);
        hi = std::isnan(v) ? v : std::max(hi, v);
      }
      enclosure = Interval(lo, hi).inflate(achieved);
      // Hybrid: the true range lies in both enclosures, so the
      // intersection is sound and at least as tight as either.
      if (use_ibp) enclosure = enclosure.intersect(ibp_box[dim]);
    } else {
      enclosure = ibp_box[dim];
    }
    out.u_range[dim] = out.u_range[dim].valid()
                           ? out.u_range[dim].hull(enclosure)
                           : enclosure;
  }
}

}  // namespace cocktail::verify
