// Bernstein-grid enclosure of a Lipschitz function over a box (Section
// III-C):
//
//   κ(x) ∈ [min_k κ(x_k) − r, max_k κ(x_k) + r]  for all x in the box,
//
// where x_k = lo + (k/d)·(hi-lo) is the tensor-product Bernstein grid of
// degrees d and r = L·‖(w_i/(2·d_i))_i‖₂.  The Bernstein polynomial B_d
// itself is never built: its coefficients are exactly these samples, and
// the bound is a covering radius on the samples, not B_d's approximation
// error.  Along each axis every x of the box lies within w_i/(2·d_i) of a
// grid point, so some sample is within ℓ2 distance ‖(w_i/(2·d_i))_i‖₂ of
// x, and L is an ℓ2 Lipschitz bound on κ.  The radius shrinks as 1/d_i, so
// the degree needed for a target ε grows *linearly* with the Lipschitz
// constant — the mechanism behind the paper's verifiability metric
// (Remark 2).
#pragma once

#include <vector>

#include "verify/interval.h"

namespace cocktail::verify {

class BernsteinPoly {
 public:
  /// Writes the Bernstein grid x_k = lo + (k/d)·(hi-lo) of `box` at
  /// `degrees` into `points`, resized to Π(d_i + 1)·n for n = box.size():
  /// row-major in coefficient order (dimension 0 fastest), point j at
  /// entries [j·n, (j+1)·n).  Each axis's d_i + 1 coordinates are computed
  /// once, and a buffer that is large enough is not reallocated.  Throws
  /// std::invalid_argument on a degree arity mismatch or a degree < 1.
  static void grid(const IBox& box, const std::vector<int>& degrees,
                   std::vector<double>& points);

  /// The grid's covering radius in the function's range,
  /// r = L·‖(width_i/(2·degree_i))_i‖₂, for any L-Lipschitz (in ℓ2)
  /// function on `box`.  The computed grid points sit within about one ulp
  /// of their exact positions, which widens the true radius by about
  /// L·√n·ulp(max |x|): ~1e-14 for the plants here, far below the
  /// kOutwardEps inflation Interval::inflate applies on top.
  [[nodiscard]] static double error_bound(double lipschitz, const IBox& box,
                                          const std::vector<int>& degrees);

  /// Writes into `degrees` (resized to box.size()) d_i =
  /// ⌈√n·L·width_i/(2ε)⌉, so that error_bound(...) <= epsilon with equal
  /// per-dimension contributions, each capped at `max_degree`.  Returns the
  /// achieved bound (> epsilon when the cap binds — the caller should then
  /// partition the box).  Throws std::invalid_argument when `max_degree`
  /// < 1.
  static double degrees_for(double lipschitz, const IBox& box, double epsilon,
                            int max_degree, std::vector<int>& degrees);
};

}  // namespace cocktail::verify
