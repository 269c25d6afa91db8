#include "verify/nn_abstraction.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace cocktail::verify {
namespace {

/// Items per sweep wave.  Results never depend on it (or on the worker
/// count); it bounds the work a sweep that exhausts its budget wastes past
/// the stop point — at most one wave of private budget caps — against the
/// pool's idle time at wave ends.
constexpr std::size_t kSweepWave = 64;

}  // namespace

void sweep_in_order(
    util::ThreadPool* pool, std::size_t count, VerificationBudget& budget,
    const std::function<void(std::size_t, VerificationBudget&)>& item) {
  struct ItemCost {
    long nn_evaluations = 0;
    long partitions = 0;
    bool failed = false;  ///< threw, e.g. on its private budget cap.
  };
  std::vector<ItemCost> costs(std::min(count, kSweepWave));
  for (std::size_t wave = 0; wave < count; wave += kSweepWave) {
    const std::size_t n = std::min(kSweepWave, count - wave);
    VerificationBudget cap;
    cap.max_nn_evaluations = budget.max_nn_evaluations - budget.nn_evaluations;
    cap.max_partitions = budget.max_partitions - budget.partitions;
    util::run_chunks(pool, n, [&](std::size_t c) {
      ItemCost& cost = costs[c];
      VerificationBudget local = cap;
      try {
        item(wave + c, local);
        cost.failed = false;
      } catch (...) {
        cost.failed = true;  // reproduced by the re-run below.
      }
      cost.nn_evaluations = local.nn_evaluations;
      cost.partitions = local.partitions;
    });
    for (std::size_t c = 0; c < n; ++c) {
      const ItemCost& cost = costs[c];
      if (!cost.failed) {
        budget.nn_evaluations += cost.nn_evaluations;
        budget.partitions += cost.partitions;
        if (!budget.exhausted()) continue;
        budget.nn_evaluations -= cost.nn_evaluations;
        budget.partitions -= cost.partitions;
      }
      item(wave + c, budget);
    }
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

std::vector<double> NnAbstraction::sample_grid(
    const std::vector<double>& points, std::size_t rows) const {
  const std::size_t outputs = controller_.control_dim();
  std::vector<double> values(rows * outputs);
  if (net_ != nullptr) {
    // act(x) = out_scale ∘ net(x): the batched rows are bitwise identical
    // to forward(x), and the scale is the same product act() takes.
    net_->forward_rows(points.data(), rows, values.data());
    for (std::size_t j = 0; j < rows; ++j)
      for (std::size_t o = 0; o < outputs; ++o)
        values[j * outputs + o] *= out_scale_[o];
    return values;
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
  return values;
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
  // Partition-refinement criterion.  Bernstein/hybrid split while the
  // capped degree cannot bring the grid's covering radius down to the
  // target ε; pure IBP has no degrees, so the Lipschitz width proxy
  // (L/2)·Σ wᵢ plays the same role.
  double achieved = 0.0;
  std::vector<int> degrees;
  if (config_.method == AbstractionMethod::kIntervalPropagation) {
    double width_sum = 0.0;
    for (const Interval& side : box) width_sum += side.width();
    achieved = 0.5 * lipschitz_ * width_sum;
  } else {
    degrees = BernsteinPoly::degrees_for(
        lipschitz_, box, config_.epsilon_target, config_.max_degree, achieved);
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
  std::vector<double> values;
  if (use_bernstein)
    values = sample_grid(BernsteinPoly::grid(box, degrees), grid_points);
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
