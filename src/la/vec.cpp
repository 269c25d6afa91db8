#include "la/vec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cocktail::la {
namespace {

void require_same_size(const Vec& a, const Vec& b, const char* op) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string("la::") + op +
                                ": dimension mismatch");
}

}  // namespace

Vec add(const Vec& a, const Vec& b) {
  require_same_size(a, b, "add");
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

Vec sub(const Vec& a, const Vec& b) {
  require_same_size(a, b, "sub");
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

Vec scale(const Vec& a, double k) {
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = k * a[i];
  return c;
}

Vec hadamard(const Vec& a, const Vec& b) {
  require_same_size(a, b, "hadamard");
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] * b[i];
  return c;
}

void axpy(Vec& a, double k, const Vec& b) {
  require_same_size(a, b, "axpy");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += k * b[i];
}

double dot(const Vec& a, const Vec& b) {
  require_same_size(a, b, "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm_l1(const Vec& a) {
  double s = 0.0;
  for (double v : a) s += std::abs(v);
  return s;
}

double norm_l2(const Vec& a) { return std::sqrt(dot(a, a)); }

double norm_linf(const Vec& a) {
  double s = 0.0;
  for (double v : a) s = std::max(s, std::abs(v));
  return s;
}

Vec clip(const Vec& a, const Vec& lo, const Vec& hi) {
  require_same_size(a, lo, "clip");
  require_same_size(a, hi, "clip");
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    c[i] = std::clamp(a[i], lo[i], hi[i]);
  return c;
}

Vec clip(const Vec& a, double lo, double hi) {
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = std::clamp(a[i], lo, hi);
  return c;
}

Vec sign(const Vec& a) {
  Vec c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    c[i] = a[i] > 0.0 ? 1.0 : (a[i] < 0.0 ? -1.0 : 0.0);
  return c;
}

double* grow_to(Vec& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

Vec constant(std::size_t n, double value) { return Vec(n, value); }

Vec zeros(std::size_t n) { return Vec(n, 0.0); }

bool all_finite(const Vec& a) {
  return std::all_of(a.begin(), a.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace cocktail::la
