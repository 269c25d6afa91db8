#include "verify/interval.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "util/csv.h"
#include "verify/tolerances.h"

namespace cocktail::verify {

Interval outward(double lo, double hi) {
  const double scale = std::max({std::abs(lo), std::abs(hi), 1.0});
  return {lo - kOutwardEps * scale, hi + kOutwardEps * scale};
}

Interval Interval::operator+(const Interval& o) const {
  return outward(lo_ + o.lo_, hi_ + o.hi_);
}

Interval Interval::operator-(const Interval& o) const {
  return outward(lo_ - o.hi_, hi_ - o.lo_);
}

Interval Interval::operator*(const Interval& o) const {
  const double a = lo_ * o.lo_;
  const double b = lo_ * o.hi_;
  const double c = hi_ * o.lo_;
  const double d = hi_ * o.hi_;
  return outward(std::min({a, b, c, d}), std::max({a, b, c, d}));
}

Interval Interval::operator*(double k) const {
  return k >= 0.0 ? outward(lo_ * k, hi_ * k) : outward(hi_ * k, lo_ * k);
}

Interval Interval::operator/(double k) const {
  if (k == 0.0) throw std::domain_error("Interval: division by zero");
  return *this * (1.0 / k);
}

Interval Interval::operator/(const Interval& o) const {
  if (o.contains(0.0))
    throw std::domain_error("Interval: divisor contains zero");
  return *this * Interval(1.0 / o.hi_, 1.0 / o.lo_);
}

Interval Interval::square() const {
  if (lo_ >= 0.0) return outward(lo_ * lo_, hi_ * hi_);
  if (hi_ <= 0.0) return outward(hi_ * hi_, lo_ * lo_);
  return outward(0.0, std::max(lo_ * lo_, hi_ * hi_));
}

Interval Interval::inflate(double r) const {
  return outward(lo_ - r, hi_ + r);
}

Interval Interval::hull(const Interval& o) const {
  return {std::min(lo_, o.lo_), std::max(hi_, o.hi_)};
}

Interval Interval::intersect(const Interval& o) const {
  return {std::max(lo_, o.lo_), std::min(hi_, o.hi_)};
}

Interval Interval::clamp_to(const Interval& bounds) const {
  return {std::clamp(lo_, bounds.lo(), bounds.hi()),
          std::clamp(hi_, bounds.lo(), bounds.hi())};
}

std::string Interval::to_string() const {
  return "[" + util::format_number(lo_) + ", " + util::format_number(hi_) +
         "]";
}

Interval sin(const Interval& x) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  if (x.width() >= kTwoPi) return {-1.0, 1.0};
  // Enclose by endpoint values plus any interior extremum of sin.
  double lo = std::min(std::sin(x.lo()), std::sin(x.hi()));
  double hi = std::max(std::sin(x.lo()), std::sin(x.hi()));
  // Maxima at pi/2 + 2k*pi, minima at -pi/2 + 2k*pi.
  const double first_max =
      std::ceil((x.lo() - std::numbers::pi / 2.0) / kTwoPi) * kTwoPi +
      std::numbers::pi / 2.0;
  if (first_max <= x.hi()) hi = 1.0;
  const double first_min =
      std::ceil((x.lo() + std::numbers::pi / 2.0) / kTwoPi) * kTwoPi -
      std::numbers::pi / 2.0;
  if (first_min <= x.hi()) lo = -1.0;
  return outward(lo, hi);
}

Interval cos(const Interval& x) {
  return sin(x + Interval(std::numbers::pi / 2.0));
}

IBox make_box(const la::Vec& lo, const la::Vec& hi) {
  if (lo.size() != hi.size())
    throw std::invalid_argument("make_box: dimension mismatch");
  IBox box(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) box[i] = {lo[i], hi[i]};
  return box;
}

IBox point_box(const la::Vec& point) {
  IBox box(point.size());
  for (std::size_t i = 0; i < point.size(); ++i) box[i] = point[i];
  return box;
}

la::Vec box_lo(const IBox& box) {
  la::Vec v(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) v[i] = box[i].lo();
  return v;
}

la::Vec box_hi(const IBox& box) {
  la::Vec v(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) v[i] = box[i].hi();
  return v;
}

la::Vec box_mid(const IBox& box) {
  la::Vec v(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) v[i] = box[i].mid();
  return v;
}

bool box_contains(const IBox& box, const la::Vec& point) {
  if (box.size() != point.size())
    throw std::invalid_argument("box_contains: dimension mismatch");
  for (std::size_t i = 0; i < box.size(); ++i)
    if (!box[i].contains(point[i])) return false;
  return true;
}

IBox box_hull(const IBox& a, const IBox& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("box_hull: dimension mismatch");
  IBox out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i].hull(b[i]);
  return out;
}

std::pair<IBox, IBox> box_bisect(const IBox& box) {
  std::size_t widest = 0;
  for (std::size_t i = 1; i < box.size(); ++i)
    if (box[i].width() > box[widest].width()) widest = i;
  IBox left = box, right = box;
  const double mid = box[widest].mid();
  left[widest] = {box[widest].lo(), mid};
  right[widest] = {mid, box[widest].hi()};
  return {std::move(left), std::move(right)};
}

double slice_face(double lo, double hi, std::size_t k, std::size_t parts) {
  if (k == 0) return lo;
  if (k >= parts) return hi;
  const double w = (hi - lo) / static_cast<double>(parts);
  return lo + static_cast<double>(k) * w;
}

IBox box_subdivide_at(const IBox& box, const std::vector<int>& parts_per_dim,
                      std::size_t index) {
  if (parts_per_dim.size() != box.size())
    throw std::invalid_argument("box_subdivide_at: dimension mismatch");
  IBox sub(box.size());
  std::size_t rem = index;
  for (std::size_t d = 0; d < box.size(); ++d) {
    if (parts_per_dim[d] < 1)
      throw std::invalid_argument("box_subdivide_at: parts < 1");
    const auto parts = static_cast<std::size_t>(parts_per_dim[d]);
    const std::size_t k = rem % parts;
    rem /= parts;
    sub[d] = {slice_face(box[d].lo(), box[d].hi(), k, parts),
              slice_face(box[d].lo(), box[d].hi(), k + 1, parts)};
  }
  if (rem != 0)
    throw std::invalid_argument("box_subdivide_at: index out of range");
  return sub;
}

std::vector<IBox> box_subdivide(const IBox& box,
                                const std::vector<int>& parts_per_dim) {
  if (parts_per_dim.size() != box.size())
    throw std::invalid_argument("box_subdivide: dimension mismatch");
  std::size_t total = 1;
  for (int parts : parts_per_dim) {
    if (parts < 1) throw std::invalid_argument("box_subdivide: parts < 1");
    // A wrapped product would return too few sub-boxes: their union would
    // no longer cover the box.
    if (total > std::numeric_limits<std::size_t>::max() /
                    static_cast<std::size_t>(parts))
      throw std::invalid_argument("box_subdivide: sub-box count overflows");
    total *= static_cast<std::size_t>(parts);
  }
  std::vector<IBox> out;
  out.reserve(total);
  for (std::size_t index = 0; index < total; ++index)
    out.push_back(box_subdivide_at(box, parts_per_dim, index));
  return out;
}

}  // namespace cocktail::verify
