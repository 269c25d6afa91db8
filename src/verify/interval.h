// Interval arithmetic for the verification substrate (Section III-C).
//
// Natural inclusion functions over closed intervals [lo, hi].  The plant
// dynamics are evaluated on intervals through the same scalar-templated
// step functions the simulator uses with doubles (src/sys/*.h), so the
// verified model is the simulated model by construction.
//
// Rounding: operations use round-to-nearest double arithmetic and then
// inflate outward by one ulp-scale epsilon (verify::outward, scaled by
// kOutwardEps from verify/tolerances.h), which dominates rounding error at
// the magnitudes these systems produce.  This is the pragmatic scheme used
// by several reachability tools; a fully directed-rounding backend could be
// swapped in behind the same interface.  Endpoint arithmetic anywhere in
// src/verify must flow through outward() — enforced by
// tools/lint_soundness.py (rule `raw-endpoint-arith`).
//
// Non-finite contract: an interval with a NaN endpoint is !valid(),
// contains() nothing, and intersects() nothing — every membership predicate
// is written in the accepting direction (`lo <= x && x <= hi`), so a NaN
// operand fails every clause and the query fails *closed*.  Operations on
// non-finite inputs may produce !valid() results (e.g. 0 * inf); callers on
// the certificate path must check valid() before trusting a derived bound.
// Infinite endpoints themselves are meaningful (unbounded safe-region
// dimensions use ±inf) and behave per IEEE-754.  Pinned by
// tests/test_verify_interval.cpp's non-finite suite.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "la/vec.h"

namespace cocktail::verify {

class Interval {
 public:
  constexpr Interval() = default;
  /// Degenerate (point) interval.
  constexpr Interval(double point) : lo_(point), hi_(point) {}  // NOLINT(google-explicit-constructor): scalar lifting is the intended ergonomics for templated dynamics.
  constexpr Interval(double lo, double hi) : lo_(lo), hi_(hi) {}

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double width() const noexcept { return hi_ - lo_; }
  [[nodiscard]] double mid() const noexcept { return 0.5 * (lo_ + hi_); }
  [[nodiscard]] double radius() const noexcept { return 0.5 * (hi_ - lo_); }
  // SNDLINT-ALLOW(nan-blind-compare): accepting direction — a NaN endpoint fails `lo <= hi`, so the interval reports invalid (fails closed)
  [[nodiscard]] bool valid() const noexcept { return lo_ <= hi_; }

  // The containment predicates below deliberately avoid isfinite guards:
  // infinite *endpoints* are meaningful (unbounded safe-region dimensions),
  // and the accepting-direction comparisons already fail closed on NaN.
  // SNDLINT-ALLOW(nan-blind-compare): accepting direction — NaN x fails both clauses, so a NaN query point is never contained
  [[nodiscard]] bool contains(double x) const noexcept {
    return lo_ <= x && x <= hi_;
  }
  // SNDLINT-ALLOW(nan-blind-compare): accepting direction — a NaN endpoint on either side fails a clause, so NaN never certifies an enclosure
  [[nodiscard]] bool contains(const Interval& other) const noexcept {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }
  // SNDLINT-ALLOW(nan-blind-compare): accepting direction — NaN operands report no intersection rather than a phantom one
  [[nodiscard]] bool intersects(const Interval& other) const noexcept {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  [[nodiscard]] Interval operator+(const Interval& o) const;
  [[nodiscard]] Interval operator-(const Interval& o) const;
  [[nodiscard]] Interval operator*(const Interval& o) const;
  [[nodiscard]] Interval operator*(double k) const;
  [[nodiscard]] Interval operator/(double k) const;
  /// Interval division; throws std::domain_error if `o` contains zero.
  [[nodiscard]] Interval operator/(const Interval& o) const;
  [[nodiscard]] Interval operator-() const { return {-hi_, -lo_}; }

  /// Tight enclosure of x² (non-negative).
  [[nodiscard]] Interval square() const;
  /// Minkowski sum with [-r, r], outward-rounded.
  [[nodiscard]] Interval inflate(double r) const;
  /// Smallest interval containing both.
  [[nodiscard]] Interval hull(const Interval& o) const;
  /// Intersection clamped to validity; callers should check valid().
  [[nodiscard]] Interval intersect(const Interval& o) const;
  /// clip(·, b.lo, b.hi) image — exact for the monotone clamp.
  [[nodiscard]] Interval clamp_to(const Interval& bounds) const;

  [[nodiscard]] std::string to_string() const;

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
};

/// The one sanctioned way to turn computed endpoints into an interval:
/// inflates [lo, hi] outward by kOutwardEps * max(|lo|, |hi|, 1) so
/// round-to-nearest error in the endpoint computation can never shrink the
/// enclosure.  Exact operations (negation, min/max, clamp, copies) may
/// construct intervals directly; everything else routes through here
/// (enforced by tools/lint_soundness.py, rule `raw-endpoint-arith`).
[[nodiscard]] Interval outward(double lo, double hi);

/// Face k of `parts` uniform slices of [lo, hi].  The extreme faces are
/// pinned to the exact parent endpoints and interior faces are shared
/// bitwise between adjacent slices, so the union of the slices covers the
/// parent box exactly — `lo + parts * w` can round strictly below `hi`,
/// which would leave an uncovered sliver at the top face.
[[nodiscard]] double slice_face(double lo, double hi, std::size_t k,
                                std::size_t parts);

/// Enclosures of sin/cos found by ADL from the templated dynamics.
[[nodiscard]] Interval sin(const Interval& x);
[[nodiscard]] Interval cos(const Interval& x);

/// Axis-aligned interval box.
using IBox = std::vector<Interval>;

[[nodiscard]] IBox make_box(const la::Vec& lo, const la::Vec& hi);
/// Point box from a vector.
[[nodiscard]] IBox point_box(const la::Vec& point);
[[nodiscard]] la::Vec box_lo(const IBox& box);
[[nodiscard]] la::Vec box_hi(const IBox& box);
[[nodiscard]] la::Vec box_mid(const IBox& box);
[[nodiscard]] double box_max_width(const IBox& box);
[[nodiscard]] bool box_contains(const IBox& box, const la::Vec& point);
[[nodiscard]] bool box_contains_box(const IBox& outer, const IBox& inner);
[[nodiscard]] IBox box_hull(const IBox& a, const IBox& b);
/// Splits the widest dimension in half.
[[nodiscard]] std::pair<IBox, IBox> box_bisect(const IBox& box);
/// Uniform subdivision into `parts_per_dim[i]` slices per dimension,
/// dimension 0 fastest.  Throws std::invalid_argument on a dimension
/// mismatch, a part count < 1, or a sub-box count that overflows size_t.
[[nodiscard]] std::vector<IBox> box_subdivide(
    const IBox& box, const std::vector<int>& parts_per_dim);
/// Sub-box `index` of box_subdivide(box, parts_per_dim), built alone.
/// Throws std::invalid_argument on a dimension mismatch, a part count < 1,
/// or an index past the last sub-box.
[[nodiscard]] IBox box_subdivide_at(const IBox& box,
                                    const std::vector<int>& parts_per_dim,
                                    std::size_t index);

}  // namespace cocktail::verify
