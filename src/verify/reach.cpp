#include "verify/reach.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "verify/sfc.h"

namespace cocktail::verify {

bool box_inside_region(const IBox& box, const sys::Box& region) {
  if (box.size() != region.dim()) return false;
  for (std::size_t i = 0; i < box.size(); ++i) {
    // Fail closed on corrupted enclosures: a NaN/Inf endpoint (an invalid
    // Interval escaping interval arithmetic) certifies nothing — without
    // this guard the bounded-dimension comparisons below are NaN-blind
    // (both compare false) and a garbage box would count as safe.
    if (!std::isfinite(box[i].lo()) || !std::isfinite(box[i].hi()) ||
        !box[i].valid())
      return false;
    if (std::isfinite(region.lo[i]) && box[i].lo() < region.lo[i])
      return false;
    if (std::isfinite(region.hi[i]) && box[i].hi() > region.hi[i])
      return false;
  }
  return true;
}

std::vector<IBox> pave_boxes(const std::vector<IBox>& boxes,
                             double resolution, std::size_t max_cells) {
  if (!std::isfinite(resolution) || resolution <= 0.0)
    throw std::invalid_argument(
        "pave_boxes: resolution must be finite and > 0");
  if (boxes.empty()) return {};
  const std::size_t dim = boxes.front().size();
  if (dim == 0) return {};
  for (const IBox& box : boxes) {
    if (box.size() != dim)
      throw std::invalid_argument("pave_boxes: mixed box dimensions");
    for (const Interval& iv : box)
      if (!std::isfinite(iv.lo()) || !std::isfinite(iv.hi()) || !iv.valid())
        throw std::invalid_argument(
            "pave_boxes: non-finite or invalid box endpoint — a corrupted "
            "enclosure cannot be soundly paved");
  }
  IBox hull = boxes.front();
  for (const IBox& box : boxes) hull = box_hull(hull, box);
  for (std::size_t d = 0; d < dim; ++d)
    if (!std::isfinite(hull[d].width()))
      throw std::invalid_argument("pave_boxes: hull width overflows double");
  if (max_cells == 0) max_cells = 1;

  // Grid shape: ~resolution-sized cells, coarsened uniformly if the total
  // would exceed max_cells.  Sizing is overflow-checked in double and with
  // a guarded multiply: a wide hull over a tiny resolution must *coarsen*,
  // never wrap size_t and falsely pass the cap (the pre-fix bug: e.g.
  // 2^32 cells per dimension in 2-D wrapped the product to zero).
  constexpr auto kMaxCellsPerDim = std::size_t{1} << 31;
  std::vector<std::size_t> cells(dim);
  std::size_t total = 1;
  for (;;) {
    bool over = false;
    total = 1;
    for (std::size_t d = 0; d < dim && !over; ++d) {
      const double want = std::ceil(hull[d].width() / resolution);
      if (!(want >= 1.0)) {  // degenerate widths pave as a single cell.
        cells[d] = 1;
      } else if (want > static_cast<double>(kMaxCellsPerDim)) {
        over = true;
        break;
      } else {
        cells[d] = static_cast<std::size_t>(want);
      }
      if (total > max_cells / cells[d])
        over = true;  // total * cells[d] would exceed max_cells (or wrap).
      else
        total *= cells[d];
    }
    if (!over && total <= max_cells) break;
    resolution *= 1.5;
  }

  // Mark the covered cells in a bitmap over the grid (one bit per cell,
  // total <= max_cells), then list them as SFC keys — Morton-interleaved
  // when the grid packs into 63 bits, flat row-major otherwise (the flat
  // key fits by construction).  The emission order is the key order —
  // deterministic and invariant under permutations of the input boxes.
  // Marking first holds each cell once, not once per box overlapping it.
  int levels = 0;
  const std::size_t widest = *std::max_element(cells.begin(), cells.end());
  while ((std::size_t{1} << levels) < widest) ++levels;
  const bool morton = sfc_fits(dim, levels);

  std::vector<std::size_t> lo_idx(dim), hi_idx(dim), idx(dim);
  std::vector<bool> covered(total);
  for (const IBox& box : boxes) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double w = hull[d].width() / static_cast<double>(cells[d]);
      const double offset_lo = w > 0.0 ? (box[d].lo() - hull[d].lo()) / w : 0.0;
      const double offset_hi = w > 0.0 ? (box[d].hi() - hull[d].lo()) / w : 0.0;
      lo_idx[d] = static_cast<std::size_t>(std::clamp(
          std::floor(offset_lo), 0.0, static_cast<double>(cells[d] - 1)));
      hi_idx[d] = static_cast<std::size_t>(std::clamp(
          std::floor(offset_hi), 0.0, static_cast<double>(cells[d] - 1)));
    }
    idx = lo_idx;
    for (;;) {
      std::size_t flat = 0, stride = 1;
      for (std::size_t d = 0; d < dim; ++d) {
        flat += idx[d] * stride;
        stride *= cells[d];
      }
      covered[flat] = true;
      std::size_t d = 0;
      while (d < dim && ++idx[d] > hi_idx[d]) {
        idx[d] = lo_idx[d];
        ++d;
      }
      if (d == dim) break;
    }
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(
      std::count(covered.begin(), covered.end(), true)));
  std::vector<std::uint32_t> coords(dim);
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (!covered[flat]) continue;
    if (!morton) {
      keys.push_back(flat);
      continue;
    }
    std::size_t rem = flat;
    for (std::size_t d = 0; d < dim; ++d) {
      coords[d] = static_cast<std::uint32_t>(rem % cells[d]);
      rem /= cells[d];
    }
    keys.push_back(sfc_encode(coords, levels));
  }
  if (morton) std::sort(keys.begin(), keys.end());

  std::vector<IBox> out;
  out.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    if (morton) {
      sfc_decode(key, dim, levels, coords);
      for (std::size_t d = 0; d < dim; ++d) idx[d] = coords[d];
    } else {
      std::uint64_t rem = key;
      for (std::size_t d = 0; d < dim; ++d) {
        idx[d] = static_cast<std::size_t>(rem % cells[d]);
        rem /= cells[d];
      }
    }
    IBox cell(dim);
    for (std::size_t d = 0; d < dim; ++d)
      cell[d] = {slice_face(hull[d].lo(), hull[d].hi(), idx[d], cells[d]),
                 slice_face(hull[d].lo(), hull[d].hi(), idx[d] + 1, cells[d])};
    out.push_back(std::move(cell));
  }
  return out;
}

ReachabilityAnalyzer::ReachabilityAnalyzer(sys::SystemPtr system,
                                           const ctrl::Controller& controller,
                                           ReachConfig config)
    : system_(std::move(system)), controller_(controller),
      config_(std::move(config)),
      dynamics_(make_interval_dynamics(*system_)) {}

ReachResult ReachabilityAnalyzer::analyze(const IBox& initial) const {
  util::Stopwatch timer;
  ReachResult result;
  result.layers.push_back({initial});
  NnAbstraction abstraction(controller_, config_.abstraction);
  VerificationBudget budget = config_.budget;
  const IBox u_bounds =
      make_box(system_->control_bounds().lo, system_->control_bounds().hi);
  const sys::Box safe = system_->safe_region();

  // Per-dimension subdivision counts against wrapping.  NaN-closed: a
  // corrupted (non-finite) width must not reach the int cast (UB) — such
  // boxes pass through unsubdivided and fail the safe-region scan closed.
  // The per-dim cap keeps the cast in range; the max_boxes check below
  // bounds the step either way.
  const auto subdivision_parts = [&](const IBox& box) {
    std::vector<int> parts(box.size(), 1);
    for (std::size_t d = 0; d < box.size(); ++d) {
      const double w = box[d].width();
      if (std::isfinite(w) && w > config_.max_box_width)
        parts[d] = static_cast<int>(
            std::min(std::ceil(w / config_.max_box_width), 1.0e9));
    }
    return parts;
  };
  // Saturating size_t arithmetic: a count past SIZE_MAX reads SIZE_MAX.
  constexpr auto kMaxCount = std::numeric_limits<std::size_t>::max();
  const auto sat_mul = [](std::size_t a, std::size_t b) {
    return a > kMaxCount / b ? kMaxCount : a * b;
  };
  const auto sat_add = [](std::size_t a, std::size_t b) {
    return a > kMaxCount - b ? kMaxCount : a + b;
  };

  bool all_safe = box_inside_region(initial, safe);
  std::string failure;
  for (int t = 0; t < config_.steps; ++t) {
    const auto& frontier = result.layers.back();
    // One successor per sub-box; frontier box b owns the flat sub-box
    // indices [first[b], first[b + 1]).  A step over max_boxes fails
    // before any enclosure.
    std::vector<std::size_t> first(frontier.size() + 1, 0);
    for (std::size_t b = 0; b < frontier.size(); ++b) {
      std::size_t n = 1;
      for (const int p : subdivision_parts(frontier[b]))
        n = sat_mul(n, static_cast<std::size_t>(p));
      first[b + 1] = sat_add(first[b], n);
    }
    if (first.back() > config_.max_boxes) {
      failure = "reachable-set frontier exceeded max_boxes=" +
                std::to_string(config_.max_boxes);
      break;
    }

    // Sweep the step's sub-boxes in (frontier box, sub-box) order.  Item i
    // builds its own sub-box, so the step never holds the sub-box list.
    std::vector<IBox> next(first.back());
    const auto image_of = [&](std::size_t i, VerificationBudget& item_budget) {
      const auto b = static_cast<std::size_t>(
          std::upper_bound(first.begin(), first.end(), i) - first.begin() - 1);
      const IBox sub = box_subdivide_at(
          frontier[b], subdivision_parts(frontier[b]), i - first[b]);
      const ControlEnclosure u = abstraction.enclose(sub, u_bounds, item_budget);
      next[i] = dynamics_->step(sub, u.u_range);
    };
    try {
      sweep_in_order(&util::ThreadPool::shared(), next.size(), budget,
                     image_of);
    } catch (const BudgetExhausted& e) {
      failure = e.what();
      break;
    } catch (const std::invalid_argument& e) {
      failure = e.what();  // corrupted box: fail closed, never crash.
      break;
    }

    // Bound the frontier: re-pave onto a regular grid once it grows past
    // the merge threshold (sound union cover, emitted in SFC key order).
    if (config_.merge_threshold > 0 &&
        next.size() > config_.merge_threshold) {
      try {
        next = pave_boxes(next, config_.max_box_width,
                          config_.merge_threshold * 4);
      } catch (const std::invalid_argument& e) {
        failure = e.what();  // non-finite frontier box: fail closed.
        break;
      }
    }
    // One pass over the layer decides its safety, stopping at the first
    // box outside X; once any box has failed, later layers are not scanned.
    all_safe = all_safe &&
               std::all_of(next.begin(), next.end(), [&](const IBox& box) {
                 return box_inside_region(box, safe);
               });
    result.layers.push_back(std::move(next));
  }
  if (failure.empty()) {
    result.completed = true;
    result.safe = all_safe;
  } else {
    result.completed = false;
    result.safe = false;
    result.failure = failure;
    COCKTAIL_WARN << "reachability failed for " << controller_.describe()
                  << ": " << failure;
  }
  result.seconds = timer.seconds();
  result.nn_evaluations = budget.nn_evaluations;
  result.partitions = budget.partitions;
  return result;
}

}  // namespace cocktail::verify
