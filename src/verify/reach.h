// Finite-horizon reachable-set computation (Definition 2 / Fig 4).
//
// The reachable set is propagated as a union of interval boxes: each box is
// subdivided below a width threshold (fighting the wrapping effect), the
// controller is abstracted per sub-box by NnAbstraction, and the image is
// the interval-dynamics step.  All work is charged to a VerificationBudget;
// exhaustion is reported as a failed (not crashed) verification — the
// reproduction of the paper's κD memory fault in Fig 4.
//
// Each step's sub-boxes run on util::ThreadPool::shared() through
// verify::sweep_in_order, the exact-serial budgeted sweep invariant sets
// share, so layers, counters and failures are the serial loop's for any
// pool width — an exhausted budget included, which stops at the very
// partition that exhausts it.
#pragma once

#include <string>
#include <vector>

#include "control/controller.h"
#include "sys/system.h"
#include "verify/interval_dynamics.h"
#include "verify/nn_abstraction.h"

namespace cocktail::verify {

struct ReachConfig {
  int steps = 15;                    ///< Fig 4 uses the first 15 steps.
  AbstractionConfig abstraction;
  double max_box_width = 0.05;       ///< subdivision threshold per dim.
  /// Successor cap per step (one successor per sub-box): a step whose
  /// sub-box count exceeds it fails before any enclosure.
  std::size_t max_boxes = 20000;
  /// When the frontier exceeds this count, it is re-paved onto a regular
  /// grid (cells of ~max_box_width), which soundly merges overlapping
  /// boxes and bounds the frontier size.  0 disables merging.
  std::size_t merge_threshold = 1024;
  VerificationBudget budget;
};

struct ReachResult {
  /// layers[t] = boxes covering the states reachable in exactly t steps
  /// (layers[0] is the initial box).
  std::vector<std::vector<IBox>> layers;
  bool completed = false;   ///< false when the budget was exhausted.
  bool safe = false;        ///< all layers inside the safe region X.
  std::string failure;      ///< reason when !completed.
  double seconds = 0.0;     ///< wall-clock verification time (Property 3).
  long nn_evaluations = 0;
  long partitions = 0;
};

class ReachabilityAnalyzer {
 public:
  /// `controller` must outlive the analyzer.
  ReachabilityAnalyzer(sys::SystemPtr system,
                       const ctrl::Controller& controller, ReachConfig config);

  /// Runs the analysis from `initial`.  Never throws on budget exhaustion —
  /// the failure is recorded in the result (completed = false).
  [[nodiscard]] ReachResult analyze(const IBox& initial) const;

 private:
  sys::SystemPtr system_;
  const ctrl::Controller& controller_;
  ReachConfig config_;
  std::unique_ptr<IntervalDynamics> dynamics_;
};

/// Fail-closed box-in-region test: every component must be finite and
/// valid (NaN/Inf certify nothing), and inside the region on every bounded
/// dimension (unbounded region dimensions always pass).  A dimension
/// mismatch fails.  ReachabilityAnalyzer decides each layer's safety with
/// one pass of it over the layer's boxes.
[[nodiscard]] bool box_inside_region(const IBox& box, const sys::Box& region);

/// Sound frontier merge: covers `boxes` with the cells of a regular grid
/// (cell edge ~`resolution`, grid capped at `max_cells` by coarsening) over
/// their hull and returns the covering cells.  Every input box is contained
/// in the union of the output cells.
///
/// Contract: `resolution` must be finite and > 0, and every box endpoint
/// finite and valid — otherwise the call throws std::invalid_argument (a
/// non-finite resolution would divide by zero or spin the coarsening loop;
/// a corrupted box cannot be soundly paved).  `analyze` converts such
/// throws into a failed — never crashed — verification.  Cell-count
/// sizing is overflow-checked: a wide hull over a tiny resolution coarsens
/// instead of wrapping size_t.  Cells are keyed on the space-filling curve
/// (verify/sfc.h) and emitted in ascending key order — deterministic, and
/// invariant under permutations of the input boxes.  Scratch: one bit per
/// grid cell (at most `max_cells` bits) plus one key per covered cell.
[[nodiscard]] std::vector<IBox> pave_boxes(const std::vector<IBox>& boxes,
                                           double resolution,
                                           std::size_t max_cells = 200000);

}  // namespace cocktail::verify
