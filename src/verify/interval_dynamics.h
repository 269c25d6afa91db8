// Interval-valued one-step dynamics (the hybrid-system transformation of
// Section III-C).
//
// Each adapter instantiates the system's scalar-templated step function
// with verify::Interval, so the verified transition relation is the
// simulated one by construction.  The external disturbance Ω enters as its
// full interval every step (worst case), and the controller's abstraction
// error (the Bernstein grid's covering radius) has already been folded into
// the control interval by NnAbstraction — together this realizes the
// paper's Ω̂ = Ω ⊕ ε.
#pragma once

#include <memory>

#include "sys/system.h"
#include "verify/interval.h"

namespace cocktail::verify {

class IntervalDynamics {
 public:
  virtual ~IntervalDynamics() = default;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  /// Over-approximate image of `state` under any control in `control` and
  /// any disturbance in Ω.
  [[nodiscard]] virtual IBox step(const IBox& state,
                                  const IBox& control) const = 0;
};

/// Builds the adapter for one of the paper's systems ("vanderpol",
/// "threed", "cartpole"); throws std::invalid_argument otherwise.
[[nodiscard]] std::unique_ptr<IntervalDynamics> make_interval_dynamics(
    const sys::System& system);

}  // namespace cocktail::verify
