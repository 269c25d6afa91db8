// Activation functions for the dense layers.
//
// Every activation here is 1-Lipschitz, so in the paper's Lipschitz-constant
// table (footnote 1) a layer with weights W contributes ||W||.
#pragma once

#include <cstddef>
#include <string>

namespace cocktail::nn {

enum class Activation { kIdentity, kRelu, kTanh };

/// Scalar activation value.  tanh is la::kernels::tanh, whose bits do not
/// depend on the host.
[[nodiscard]] double activate(Activation act, double z) noexcept;

/// Derivative dσ/dz expressed through the pre-activation `z` and the
/// already-computed output `a = σ(z)` (cheaper for tanh).
[[nodiscard]] double activate_grad(Activation act, double z,
                                   double a) noexcept;

/// out[i] = activate(act, z[i]) for i < n: the activation of a block of
/// rows, with the switch hoisted out of the loop (same bits as the scalar
/// form).  `out` may alias `z`.
void activate_rows(Activation act, const double* z, double* out,
                   std::size_t n) noexcept;

/// dz[i] = delta[i] * activate_grad(act, z[i], a[i]) for i < n: the
/// backward step through the activation of a block of rows (same bits as
/// the scalar form).
void backprop_rows(Activation act, const double* z, const double* a,
                   const double* delta, double* dz, std::size_t n) noexcept;

[[nodiscard]] std::string to_string(Activation act);
[[nodiscard]] Activation activation_from_string(const std::string& name);

}  // namespace cocktail::nn
