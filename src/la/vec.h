// Dense vector helpers.
//
// Vectors are plain std::vector<double> throughout the library (states,
// controls, gradients); the free functions here keep call sites readable
// without introducing an expression-template layer the problem sizes
// (|s| <= 4, |u| <= 1, hidden widths <= 128) do not need.
#pragma once

#include <cstddef>
#include <vector>

namespace cocktail::la {

using Vec = std::vector<double>;

/// c = a + b.  Dimensions must match.
[[nodiscard]] Vec add(const Vec& a, const Vec& b);
/// c = a - b.  Dimensions must match.
[[nodiscard]] Vec sub(const Vec& a, const Vec& b);
/// c = k * a.
[[nodiscard]] Vec scale(const Vec& a, double k);
/// c_i = a_i * b_i.
[[nodiscard]] Vec hadamard(const Vec& a, const Vec& b);
/// a += k * b (in place).
void axpy(Vec& a, double k, const Vec& b);
/// Inner product.
[[nodiscard]] double dot(const Vec& a, const Vec& b);
/// Sum of |a_i| (the paper's control-energy norm).
[[nodiscard]] double norm_l1(const Vec& a);
/// Euclidean norm.
[[nodiscard]] double norm_l2(const Vec& a);
/// max |a_i|.
[[nodiscard]] double norm_linf(const Vec& a);
/// Element-wise clip to [lo_i, hi_i].  `lo`/`hi` must match `a`.
[[nodiscard]] Vec clip(const Vec& a, const Vec& lo, const Vec& hi);
/// Element-wise clip to the scalar interval [lo, hi].
[[nodiscard]] Vec clip(const Vec& a, double lo, double hi);
/// Element-wise sign: -1, 0, or +1.
[[nodiscard]] Vec sign(const Vec& a);
/// Grows `buf` to at least `n` entries (never shrinks) and returns its
/// data: a reused scratch buffer allocates only when it grows.
[[nodiscard]] double* grow_to(Vec& buf, std::size_t n);
/// Constant vector.
[[nodiscard]] Vec constant(std::size_t n, double value);
/// All-zero vector.
[[nodiscard]] Vec zeros(std::size_t n);
/// True if every element is finite.
[[nodiscard]] bool all_finite(const Vec& a);

}  // namespace cocktail::la
