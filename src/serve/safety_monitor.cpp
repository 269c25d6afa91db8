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

SafetyMonitor SafetyMonitor::inside_box(sys::Box box, double margin) {
  if (margin < 0.0)
    throw std::invalid_argument("SafetyMonitor: negative margin");
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kBox;
  monitor.box_ = std::move(box);
  monitor.margin_ = margin;
  return monitor;
}

SafetyMonitor SafetyMonitor::inside_invariant(verify::InvariantResult result,
                                              sys::Box domain, double margin) {
  if (margin < 0.0)
    throw std::invalid_argument("SafetyMonitor: negative margin");
  if (!result.completed)
    throw std::invalid_argument(
        "SafetyMonitor: invariant computation did not complete — its member "
        "set certifies nothing");
  if (result.grid.size() != domain.dim())
    throw std::invalid_argument(
        "SafetyMonitor: invariant grid / domain dimension mismatch");
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kInvariant;
  monitor.box_ = std::move(domain);
  monitor.margin_ = margin;
  monitor.invariant_ =
      std::make_shared<const verify::InvariantResult>(std::move(result));
  // Key the member set on the space-filling curve when the grid packs into
  // a 64-bit Morton key; outsized grids keep the flat odometer fallback.
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
      return window_all_members_flat(lo_k, hi_k);
    }
  }
  return false;
}

// SNDLINT-ALLOW(nan-blind-compare): pure integer cell-coordinate walk — no floating-point inputs reach the flat member odometer.
bool SafetyMonitor::window_all_members_flat(
    const std::vector<int>& lo_k, const std::vector<int>& hi_k) const {
  // Odometer over the overlapped cell range (dim 0 fastest, matching
  // InvariantResult's flattened indexing).
  std::vector<int> k = lo_k;
  for (;;) {
    std::size_t index = 0;
    std::size_t stride = 1;
    for (std::size_t d = 0; d < k.size(); ++d) {
      index += static_cast<std::size_t>(k[d]) * stride;
      stride *= static_cast<std::size_t>(invariant_->grid[d]);
    }
    if (!invariant_->member[index]) return false;
    std::size_t d = 0;
    while (d < k.size() && ++k[d] > hi_k[d]) {
      k[d] = lo_k[d];
      ++d;
    }
    if (d == k.size()) break;
  }
  return true;
}

double SafetyMonitor::action_deviation_bound(const ctrl::Controller& controller,
                                             double epsilon_inf) {
  const double lip = controller.lipschitz_bound();
  if (lip < 0.0) return -1.0;
  return lip * std::sqrt(static_cast<double>(controller.state_dim())) *
         epsilon_inf;
}

}  // namespace cocktail::serve
