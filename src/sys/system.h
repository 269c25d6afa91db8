// Discrete-time feedback system interface (paper Eq. (1)):
//
//   s(t+1) = f(s(t), u(t), ω(t), δ(t))
//
// with safe region X, initial set X0, control bound U, and bounded external
// disturbance ω.  The state perturbation δ (adversarial attack or
// measurement noise) is *not* part of the plant: per the paper it perturbs
// the controller's observation of s, so it lives in src/attack and is
// applied by the rollout loop.
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "la/matrix.h"
#include "la/vec.h"
#include "util/rng.h"

namespace cocktail::sys {

/// Axis-aligned box (X, X0, U, Ω are all boxes in the paper).
struct Box {
  la::Vec lo;
  la::Vec hi;

  Box() = default;
  /// Throws std::invalid_argument on a dimension mismatch, a NaN bound or
  /// lo > hi.  ±kUnbounded bounds are legal.
  Box(la::Vec lower, la::Vec upper);
  /// Symmetric box [-half_width, half_width]^dim.
  static Box symmetric(std::size_t dim, double half_width);
  /// Unbounded interval marker for dimensions without a safety constraint.
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  [[nodiscard]] std::size_t dim() const noexcept { return lo.size(); }
  [[nodiscard]] bool contains(const la::Vec& point) const;
  /// Uniform sample; every dimension must be bounded.
  [[nodiscard]] la::Vec sample(util::Rng& rng) const;
  [[nodiscard]] la::Vec center() const;
  [[nodiscard]] la::Vec half_widths() const;
  /// True if every dimension is finite.
  [[nodiscard]] bool bounded() const;
};

class System {
 public:
  virtual ~System() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  [[nodiscard]] virtual std::size_t control_dim() const = 0;
  /// Dimension of the external disturbance ω (0 if the plant has none).
  [[nodiscard]] virtual std::size_t disturbance_dim() const { return 0; }

  /// One dynamics step.  `omega` must have disturbance_dim() entries
  /// (empty when the plant is undisturbed).  `u` is used as passed — the
  /// caller is responsible for clipping to the control bounds.
  [[nodiscard]] virtual la::Vec step(const la::Vec& s, const la::Vec& u,
                                     const la::Vec& omega) const = 0;

  /// Safe region X.  Unconstrained dimensions use ±Box::kUnbounded.
  [[nodiscard]] virtual Box safe_region() const = 0;
  /// Initial state set X0 ⊆ X.
  [[nodiscard]] virtual Box initial_set() const = 0;
  /// Control bound U = [U_inf, U_sup].
  [[nodiscard]] virtual Box control_bounds() const = 0;
  /// Disturbance bound Ω (empty box when disturbance_dim() == 0).
  [[nodiscard]] virtual Box disturbance_bounds() const { return Box{}; }
  /// Bounded region used for uniform state sampling (distillation dataset,
  /// Lipschitz estimation).  Defaults to X; systems whose X has unbounded
  /// dimensions override this with a physically reasonable box.
  [[nodiscard]] virtual Box sampling_region() const { return safe_region(); }

  /// Episodic control length T from the paper's experimental setup.
  [[nodiscard]] virtual int horizon() const = 0;
  /// Sampling period τ.
  [[nodiscard]] virtual double dt() const = 0;

  /// True if the state is inside the safe region X.
  [[nodiscard]] bool is_safe(const la::Vec& s) const;

  [[nodiscard]] la::Vec sample_initial_state(util::Rng& rng) const;
  /// Uniform draw from Ω, or an empty vector if there is no disturbance.
  [[nodiscard]] la::Vec sample_disturbance(util::Rng& rng) const;
  /// clip(u, U_inf, U_sup) — the feasibility projection of paper Eq. (4).
  [[nodiscard]] la::Vec clip_control(const la::Vec& u) const;

  /// Linearization s(t+1) ≈ A s + B u around the origin, when available
  /// (used by the LQR / model-based experts).
  [[nodiscard]] virtual bool has_linearization() const { return false; }
  /// Fills A (n x n) and B (n x m); throws std::logic_error if
  /// has_linearization() is false.
  virtual void linearize(la::Matrix& a, la::Matrix& b) const;
};

using SystemPtr = std::shared_ptr<const System>;

}  // namespace cocktail::sys
