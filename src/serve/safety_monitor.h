// Online safety monitor for served controllers.
//
// The paper's verifiability argument (footnote 1) certifies the distilled
// student κ* only inside a verified region — the control-invariant set XI of
// Definition 1 (verify::invariant) or, more coarsely, a box validated by
// reachability.  A request whose state lies outside that region voids the
// certificate, so the serving runtime routes it to a trusted fallback expert
// instead: the improper-RL safety pattern (Zaki et al., "Actor-Critic based
// Improper Reinforcement Learning") of falling back on a validated base
// controller whenever the learned policy leaves its certified regime.
//
// Observation uncertainty composes soundly: if the observed state may be off
// by up to `margin` in the inf-norm, certify only states whose whole
// ±margin box lies in the certified region, and bound the action drift via
// the controller's certified Lipschitz constant (action_deviation_bound).
//
// Thread-safety: a SafetyMonitor is immutable after construction (the
// factories return it by value; certified() is const over const state), so
// ControllerServer batch workers call certified() concurrently with no lock
// — which is why registration hands the monitor to the registry by value
// rather than sharing a mutable reference with the caller.
#pragma once

#include <memory>

#include "control/controller.h"
#include "la/vec.h"
#include "sys/system.h"
#include "verify/cell_set_tree.h"
#include "verify/invariant.h"

namespace cocktail::serve {

class SafetyMonitor {
 public:
  /// Default-constructed monitor certifies nothing: every request falls
  /// back.  The safe default for a controller without a certificate.
  SafetyMonitor() = default;

  /// Certifies every state (pure-throughput serving and benches).
  [[nodiscard]] static SafetyMonitor trust_all();

  /// Certifies states at least `margin` inside `box` on every dimension
  /// (unbounded dimensions always pass).  `margin` is the inf-norm bound on
  /// observation error the deployment assumes; throws
  /// std::invalid_argument unless it is finite and >= 0.
  [[nodiscard]] static SafetyMonitor inside_box(sys::Box box,
                                                double margin = 0.0);

  /// Certifies states whose surrounding ±margin box lies entirely in the
  /// computed invariant set: every grid cell the box overlaps must be a
  /// member (not just the corners — a wide margin can straddle interior
  /// cells).  Throws std::invalid_argument unless the margin is finite and
  /// >= 0, the result completed, its grid has one positive cell count per
  /// domain dimension with Π grid == member.size(), and the domain is
  /// bounded with positive widths.
  [[nodiscard]] static SafetyMonitor inside_invariant(
      verify::InvariantResult result, sys::Box domain, double margin = 0.0);

  /// True when serving `state` is covered by the certificate.  A state of
  /// the wrong dimension is never certified, and neither is a state with
  /// any non-finite (NaN/Inf) component — in every mode, including
  /// trust_all: a corrupted observation always routes to the fallback.
  [[nodiscard]] bool certified(const la::Vec& state) const;

  /// Sound bound on the served action's drift under observation uncertainty
  /// ||δ||_inf <= epsilon_inf, from the controller's certified Lipschitz
  /// bound L:  ||κ(s+δ) − κ(s)||_2  <=  L · sqrt(d) · epsilon_inf.
  /// Negative when the controller carries no certificate (Table I's "-").
  [[nodiscard]] static double action_deviation_bound(
      const ctrl::Controller& controller, double epsilon_inf);

 private:
  enum class Mode { kNone, kAll, kBox, kInvariant };

  Mode mode_ = Mode::kNone;
  sys::Box box_;  ///< kBox: the certified box; kInvariant: the grid domain.
  double margin_ = 0.0;
  std::shared_ptr<const verify::InvariantResult> invariant_;
  /// SFC-keyed index over the invariant member set (kInvariant only; null
  /// when the grid is unsupported, i.e. dim > kMaxSfcDim or > 63 key
  /// bits).  Margin window checks descend the tree — O(window boundary) —
  /// instead of InvariantResult::all_members' O(window volume) odometer,
  /// which outsized grids fall back to; the verdicts are bitwise identical.
  std::shared_ptr<const verify::CellSetTree> member_tree_;
};

}  // namespace cocktail::serve
