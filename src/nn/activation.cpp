#include "nn/activation.h"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "la/kernels.h"

namespace cocktail::nn {

double activate(Activation act, double z) noexcept {
  switch (act) {
    case Activation::kIdentity:
      return z;
    case Activation::kRelu:
      return z > 0.0 ? z : 0.0;
    case Activation::kTanh:
      return la::kernels::tanh(z);
  }
  return z;
}

double activate_grad(Activation act, double z, double a) noexcept {
  switch (act) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kRelu:
      return z > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - a * a;
  }
  return 1.0;
}

namespace {

// One loop per activation: `A` is a constant, so the scalar functions above
// inline with their switch folded away.
template <Activation A>
void activate_loop(const double* z, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = activate(A, z[i]);
}

template <Activation A>
void backprop_loop(const double* z, const double* a, const double* delta,
                   double* dz, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    dz[i] = delta[i] * activate_grad(A, z[i], a[i]);
}

// ReLU's gradient without a branch: the compare mask of z > 0 keeps the
// bits of 1.0 or clears them to +0.0 (NaN compares false, as in
// activate_grad), then the same multiply.  A branch per element
// mispredicts on random activation patterns.
template <>
void backprop_loop<Activation::kRelu>(const double* z, const double*,
                                      const double* delta, double* dz,
                                      std::size_t n) noexcept {
  const std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(z[i] > 0.0);
    dz[i] = delta[i] * std::bit_cast<double>(mask & one);
  }
}

}  // namespace

void activate_rows(Activation act, const double* z, double* out,
                   std::size_t n) noexcept {
  switch (act) {
    case Activation::kIdentity:
      return activate_loop<Activation::kIdentity>(z, out, n);
    case Activation::kRelu:
      return activate_loop<Activation::kRelu>(z, out, n);
    case Activation::kTanh:
      return la::kernels::tanh_rows(z, out, n);
  }
}

void backprop_rows(Activation act, const double* z, const double* a,
                   const double* delta, double* dz, std::size_t n) noexcept {
  switch (act) {
    case Activation::kIdentity:
      return backprop_loop<Activation::kIdentity>(z, a, delta, dz, n);
    case Activation::kRelu:
      return backprop_loop<Activation::kRelu>(z, a, delta, dz, n);
    case Activation::kTanh:
      return backprop_loop<Activation::kTanh>(z, a, delta, dz, n);
  }
}

std::string to_string(Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
  }
  return "identity";
}

Activation activation_from_string(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  if (name == "tanh") return Activation::kTanh;
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace cocktail::nn
