#include "serve/safety_monitor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cocktail::serve {

SafetyMonitor SafetyMonitor::trust_all() {
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kAll;
  return monitor;
}

namespace {

/// A NaN margin would disable every margin comparison (and reach the
/// window's int casts); an infinite one certifies nothing.
void check_margin(double margin) {
  if (!std::isfinite(margin) || margin < 0.0)
    throw std::invalid_argument("SafetyMonitor: margin must be finite and >= 0");
}

}  // namespace

SafetyMonitor SafetyMonitor::inside_box(sys::Box box, double margin) {
  check_margin(margin);
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kBox;
  monitor.box_ = std::move(box);
  monitor.margin_ = margin;
  return monitor;
}

SafetyMonitor SafetyMonitor::inside_invariant(verify::InvariantResult result,
                                              sys::Box domain, double margin) {
  check_margin(margin);
  if (!result.completed)
    throw std::invalid_argument(
        "SafetyMonitor: invariant computation did not complete — its member "
        "set certifies nothing");
  if (result.grid.size() != domain.dim())
    throw std::invalid_argument(
        "SafetyMonitor: invariant grid / domain dimension mismatch");
  // The window quantization divides by each cell's width.
  for (std::size_t d = 0; d < domain.dim(); ++d)
    if (!std::isfinite(domain.lo[d]) || !std::isfinite(domain.hi[d]) ||
        !(domain.lo[d] < domain.hi[d]))
      throw std::invalid_argument(
          "SafetyMonitor: invariant domain must be bounded with positive "
          "widths");
  // The window walk indexes `member` by grid coordinates, so Π grid must
  // be its size.  The product stops growing once it would pass the size,
  // so it cannot wrap.
  std::size_t cells = 1;
  bool fits = true;
  for (const int count : result.grid) {
    if (count <= 0)
      throw std::invalid_argument(
          "SafetyMonitor: invariant grid has a non-positive cell count");
    const auto n = static_cast<std::size_t>(count);
    fits = fits && cells <= result.member.size() / n;
    if (fits) cells *= n;
  }
  if (!fits || cells != result.member.size())
    throw std::invalid_argument(
        "SafetyMonitor: invariant member array does not match its grid");
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kInvariant;
  monitor.box_ = std::move(domain);
  monitor.margin_ = margin;
  monitor.invariant_ =
      std::make_shared<const verify::InvariantResult>(std::move(result));
  // Key the member set on the space-filling curve when the grid packs into
  // a 64-bit Morton key; outsized grids walk the member window flat
  // (InvariantResult::all_members).
  // Built once here — the monitor stays immutable after construction, so
  // concurrent certified() calls share the tree without a lock.
  if (verify::CellSetTree::supports(monitor.invariant_->grid))
    monitor.member_tree_ = std::make_shared<const verify::CellSetTree>(
        verify::CellSetTree::build(monitor.invariant_->grid,
                                   monitor.invariant_->member));
  return monitor;
}

bool SafetyMonitor::certified(const la::Vec& state) const {
  // A corrupted observation certifies nothing, in *every* mode: the
  // exclusion-direction comparisons below are NaN-blind (each comparison is
  // false for NaN, so a garbage state would fall through as certified), and
  // even trust_all promises only that finite states are served by the
  // primary — a non-finite state always routes to the fallback.
  for (std::size_t d = 0; d < state.size(); ++d)
    if (!std::isfinite(state[d])) return false;
  switch (mode_) {
    case Mode::kNone:
      return false;
    case Mode::kAll:
      return true;
    case Mode::kBox: {
      if (state.size() != box_.dim()) return false;
      for (std::size_t d = 0; d < state.size(); ++d)
        if (state[d] < box_.lo[d] + margin_ ||
            state[d] > box_.hi[d] - margin_)
          return false;
      return true;
    }
    case Mode::kInvariant: {
      if (state.size() != box_.dim()) return false;
      if (margin_ == 0.0) return invariant_->contains(box_, state);
      // Every grid cell overlapped by [state - margin, state + margin] must
      // be a member.  Corner sampling alone would be unsound: a margin wider
      // than half a cell can straddle interior cells no corner lands in.
      std::vector<int> lo_k(state.size()), hi_k(state.size());
      for (std::size_t d = 0; d < state.size(); ++d) {
        const double lo = state[d] - margin_;
        const double hi = state[d] + margin_;
        if (lo < box_.lo[d] || hi > box_.hi[d]) return false;  // leaves X.
        const double w = (box_.hi[d] - box_.lo[d]) /
                         static_cast<double>(invariant_->grid[d]);
        lo_k[d] = std::clamp(
            static_cast<int>(std::floor((lo - box_.lo[d]) / w)), 0,
            invariant_->grid[d] - 1);
        hi_k[d] = std::clamp(
            static_cast<int>(std::floor((hi - box_.lo[d]) / w)), 0,
            invariant_->grid[d] - 1);
      }
      // Every overlapped cell must be a member: a pruned descent of the
      // SFC-keyed tree when one was built, the flat odometer otherwise.
      // The two walks return bitwise-identical verdicts (tested).
      if (member_tree_) return member_tree_->all_members(lo_k, hi_k);
      return invariant_->all_members(lo_k, hi_k);
    }
  }
  return false;
}

double SafetyMonitor::action_deviation_bound(const ctrl::Controller& controller,
                                             double epsilon_inf) {
  const double lip = controller.lipschitz_bound();
  if (lip < 0.0) return -1.0;
  return lip * std::sqrt(static_cast<double>(controller.state_dim())) *
         epsilon_inf;
}

}  // namespace cocktail::serve
