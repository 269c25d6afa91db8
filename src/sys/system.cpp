#include "sys/system.h"

#include <cmath>
#include <stdexcept>

namespace cocktail::sys {

Box::Box(la::Vec lower, la::Vec upper) : lo(std::move(lower)), hi(std::move(upper)) {
  if (lo.size() != hi.size())
    throw std::invalid_argument("Box: lo/hi dimension mismatch");
  // ±inf bounds mark unconstrained dimensions; a NaN bound would make
  // contains() treat its side as unconstrained too, so it is refused.
  for (std::size_t i = 0; i < lo.size(); ++i) {
    if (std::isnan(lo[i]) || std::isnan(hi[i]))
      throw std::invalid_argument("Box: NaN bound");
    if (lo[i] > hi[i]) throw std::invalid_argument("Box: lo > hi");
  }
}

Box Box::symmetric(std::size_t dim, double half_width) {
  return Box(la::constant(dim, -half_width), la::constant(dim, half_width));
}

bool Box::contains(const la::Vec& point) const {
  if (point.size() != dim())
    throw std::invalid_argument("Box::contains: dimension mismatch");
  for (std::size_t i = 0; i < point.size(); ++i) {
    // The exclusion-direction comparison below is NaN-blind (both clauses
    // are false for NaN), so reject non-finite components first: a
    // non-finite coordinate is never contained, even in an unbounded
    // (±kUnbounded) dimension.
    if (!std::isfinite(point[i])) return false;
    if (point[i] < lo[i] || point[i] > hi[i]) return false;
  }
  return true;
}

la::Vec Box::sample(util::Rng& rng) const {
  if (!bounded())
    throw std::logic_error("Box::sample: box has unbounded dimensions");
  la::Vec point(dim());
  for (std::size_t i = 0; i < dim(); ++i) point[i] = rng.uniform(lo[i], hi[i]);
  return point;
}

la::Vec Box::center() const {
  la::Vec c(dim());
  for (std::size_t i = 0; i < dim(); ++i) c[i] = 0.5 * (lo[i] + hi[i]);
  return c;
}

la::Vec Box::half_widths() const {
  la::Vec w(dim());
  for (std::size_t i = 0; i < dim(); ++i) w[i] = 0.5 * (hi[i] - lo[i]);
  return w;
}

bool Box::bounded() const {
  for (std::size_t i = 0; i < dim(); ++i)
    if (!std::isfinite(lo[i]) || !std::isfinite(hi[i])) return false;
  return true;
}

bool System::is_safe(const la::Vec& s) const {
  return safe_region().contains(s);
}

la::Vec System::sample_initial_state(util::Rng& rng) const {
  return initial_set().sample(rng);
}

la::Vec System::sample_disturbance(util::Rng& rng) const {
  if (disturbance_dim() == 0) return {};
  return disturbance_bounds().sample(rng);
}

la::Vec System::clip_control(const la::Vec& u) const {
  const Box bounds = control_bounds();
  return la::clip(u, bounds.lo, bounds.hi);
}

void System::linearize(la::Matrix&, la::Matrix&) const {
  throw std::logic_error("System::linearize: not available for " + name());
}

}  // namespace cocktail::sys
