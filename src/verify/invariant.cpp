#include "verify/invariant.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cocktail::verify {
namespace {

/// Flattened cell indexing over the grid (dimension 0 fastest).
struct GridIndexer {
  std::vector<int> grid;
  sys::Box domain;

  [[nodiscard]] std::size_t cell_count() const {
    std::size_t n = 1;
    for (int g : grid) n *= static_cast<std::size_t>(g);
    return n;
  }

  [[nodiscard]] IBox cell_box(std::size_t index) const {
    return box_subdivide_at(make_box(domain.lo, domain.hi), grid, index);
  }

  /// Index range [lo_k, hi_k] of cells overlapping the box of grid.size()
  /// intervals starting at `box`, along each dim, or false if the box
  /// leaves the domain or is corrupted.
  [[nodiscard]] bool overlap_range(const Interval* box,
                                   std::vector<int>& lo_k,
                                   std::vector<int>& hi_k) const {
    lo_k.resize(grid.size());
    hi_k.resize(grid.size());
    for (std::size_t d = 0; d < grid.size(); ++d) {
      // A NaN endpoint passes both comparisons; fail it closed before the
      // int casts below, which are UB for NaN.  An inverted interval would
      // make an empty window, which all_members accepts vacuously.
      if (!std::isfinite(box[d].lo()) || !std::isfinite(box[d].hi()) ||
          !box[d].valid() || box[d].lo() < domain.lo[d] ||
          box[d].hi() > domain.hi[d])
        return false;
      const double w =
          (domain.hi[d] - domain.lo[d]) / static_cast<double>(grid[d]);
      lo_k[d] = std::clamp(
          static_cast<int>(std::floor((box[d].lo() - domain.lo[d]) / w)), 0,
          grid[d] - 1);
      hi_k[d] = std::clamp(
          static_cast<int>(std::floor((box[d].hi() - domain.lo[d]) / w)), 0,
          grid[d] - 1);
    }
    return true;
  }
};

}  // namespace

IBox InvariantResult::cell_box(const sys::Box& domain,
                               std::size_t index) const {
  const GridIndexer indexer{grid, domain};
  return indexer.cell_box(index);
}

bool InvariantResult::contains(const sys::Box& domain,
                               const la::Vec& point) const {
  if (!domain.contains(point)) return false;
  std::size_t index = 0;
  std::size_t stride = 1;
  for (std::size_t d = 0; d < grid.size(); ++d) {
    const double w =
        (domain.hi[d] - domain.lo[d]) / static_cast<double>(grid[d]);
    const int k = std::clamp(
        static_cast<int>(std::floor((point[d] - domain.lo[d]) / w)), 0,
        grid[d] - 1);
    index += static_cast<std::size_t>(k) * stride;
    stride *= static_cast<std::size_t>(grid[d]);
  }
  return member[index];
}

// SNDLINT-ALLOW(nan-blind-compare): pure integer cell-coordinate walk — callers quantize finite boxes and states into the window first, and out-of-range windows fail closed below
bool InvariantResult::all_members(const std::vector<int>& lo_k,
                                  const std::vector<int>& hi_k) const {
  const std::size_t dim = grid.size();
  if (dim == 0 || lo_k.size() != dim || hi_k.size() != dim) return false;
  for (std::size_t d = 0; d < dim; ++d)
    if (lo_k[d] > hi_k[d]) return true;  // empty window: nothing to check.
  for (std::size_t d = 0; d < dim; ++d)
    if (lo_k[d] < 0 || hi_k[d] >= grid[d]) return false;
  std::vector<int> k = lo_k;
  for (;;) {
    std::size_t index = 0;
    std::size_t stride = 1;
    for (std::size_t d = 0; d < dim; ++d) {
      index += static_cast<std::size_t>(k[d]) * stride;
      stride *= static_cast<std::size_t>(grid[d]);
    }
    if (!member[index]) return false;
    // Advance the odometer over [lo_k, hi_k].
    std::size_t d = 0;
    while (d < dim && ++k[d] > hi_k[d]) {
      k[d] = lo_k[d];
      ++d;
    }
    if (d == dim) return true;
  }
}

InvariantSetComputer::InvariantSetComputer(sys::SystemPtr system,
                                           const ctrl::Controller& controller,
                                           InvariantConfig config)
    : system_(std::move(system)), controller_(controller),
      config_(std::move(config)) {
  if (!system_->safe_region().bounded())
    throw std::invalid_argument(
        "InvariantSetComputer: safe region must be bounded (use a bounded "
        "sub-domain for systems with unconstrained dimensions)");
  if (!config_.grid.empty() && config_.grid.size() != system_->state_dim())
    throw std::invalid_argument(
        "InvariantSetComputer: grid needs one cell count per state dimension");
}

InvariantResult InvariantSetComputer::compute() const {
  util::Stopwatch timer;
  InvariantResult result;
  const sys::Box domain = system_->safe_region();
  result.grid = config_.grid;
  if (result.grid.empty()) result.grid.assign(system_->state_dim(), 40);
  const GridIndexer indexer{result.grid, domain};
  const std::size_t cells = indexer.cell_count();
  result.member.assign(cells, true);

  NnAbstraction abstraction(controller_, config_.abstraction);
  VerificationBudget budget = config_.budget;
  const auto dynamics = make_interval_dynamics(*system_);
  const IBox u_bounds =
      make_box(system_->control_bounds().lo, system_->control_bounds().hi);

  // Phase 1 (expensive, Lipschitz-dependent): one-step image of every
  // cell, swept in cell order on the shared pool by sweep_in_order, which
  // gives the serial sweep's counters and failure for any pool width.
  //
  // The images live in one flat block allocated here (cell i at [i·dim,
  // (i+1)·dim)): a per-cell IBox would be allocated by whichever worker
  // ran the cell, and thousands of long-lived blocks spread over the
  // workers' glibc malloc arenas added ~0.3 MB of peak RSS to perfbench's
  // verify workload (80x80 grid, 3 threads).
  const std::size_t dim = result.grid.size();
  std::vector<Interval> images(cells * dim);
  const auto image_of = [&](std::size_t i, VerificationBudget& cell_budget) {
    const IBox cell = indexer.cell_box(i);
    const ControlEnclosure u = abstraction.enclose(cell, u_bounds, cell_budget);
    const IBox image = dynamics->step(cell, u.u_range);
    std::copy(image.begin(), image.end(),
              images.begin() + static_cast<std::ptrdiff_t>(i * dim));
  };
  try {
    sweep_in_order(&util::ThreadPool::shared(), cells, budget, image_of);
  } catch (const BudgetExhausted& e) {
    result.completed = false;
    result.failure = e.what();
    result.seconds = timer.seconds();
    result.nn_evaluations = budget.nn_evaluations;
    result.partitions = budget.partitions;
    COCKTAIL_WARN << "invariant-set computation failed for "
                  << controller_.describe() << ": " << e.what();
    return result;
  }

  // Phase 2 (cheap): fixed-point removal of cells whose image escapes the
  // candidate union.
  std::vector<int> lo_k, hi_k;
  bool changed = true;
  while (changed && result.iterations < config_.max_iterations) {
    changed = false;
    ++result.iterations;
    for (std::size_t i = 0; i < cells; ++i) {
      if (!result.member[i]) continue;
      // Every cell the image overlaps must still be a member.
      if (!indexer.overlap_range(&images[i * dim], lo_k, hi_k) ||
          !result.all_members(lo_k, hi_k)) {
        result.member[i] = false;
        changed = true;
      }
    }
  }

  const auto surviving = static_cast<std::size_t>(
      std::count(result.member.begin(), result.member.end(), true));
  result.volume_fraction =
      static_cast<double>(surviving) / static_cast<double>(cells);
  result.seconds = timer.seconds();
  result.nn_evaluations = budget.nn_evaluations;
  result.partitions = budget.partitions;
  // The last sweep removed cells, so no sweep has checked the survivors
  // against each other: the set is not known to be invariant.
  if (changed) {
    result.completed = false;
    result.failure = "fixed point not reached within max_iterations = " +
                     std::to_string(config_.max_iterations);
    COCKTAIL_WARN << "invariant-set computation failed for "
                  << controller_.describe() << ": " << result.failure;
    return result;
  }
  result.completed = true;
  COCKTAIL_INFO << "invariant set for " << controller_.describe() << ": "
                << surviving << "/" << cells << " cells in "
                << result.iterations << " iterations, "
                << result.seconds << " s";
  return result;
}

}  // namespace cocktail::verify
