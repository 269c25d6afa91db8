// Control-invariant-set computation (Definition 1 / Fig 3).
//
// Grid fixed-point algorithm in the style of Xue & Zhan [22]: X is tiled
// into cells; a cell's one-step image (interval dynamics with the
// Bernstein-abstracted controller and worst-case Ω) is computed once, and
// cells whose image is not covered by the remaining candidate set are
// removed until a fixed point.  Any state in a surviving cell stays in the
// surviving union forever — an infinite-horizon safety certificate.
//
// The expensive phase is the per-cell controller abstraction, whose cost
// scales with the controller's Lipschitz constant (degree and partition
// growth); the wall-clock `seconds` of the result is the paper's
// verifiability metric, and budget exhaustion reproduces the κD blow-up.
// That phase runs on util::ThreadPool::shared() through
// verify::sweep_in_order (nn_abstraction.h), the exact-serial budgeted
// sweep reachability shares, so every field but `seconds` is bitwise
// identical to a serial sweep for any pool width.
#pragma once

#include <string>
#include <vector>

#include "control/controller.h"
#include "sys/system.h"
#include "verify/interval_dynamics.h"
#include "verify/nn_abstraction.h"

namespace cocktail::verify {

struct InvariantConfig {
  std::vector<int> grid;  ///< cells per dimension (empty = 40 per dim).
  AbstractionConfig abstraction;
  VerificationBudget budget;
  int max_iterations = 200;  ///< fixed-point sweep cap.
};

struct InvariantResult {
  std::vector<int> grid;
  /// Flattened (dim 0 fastest); true = in XI.  Bit-packed, so neighbouring
  /// cells share a word: no writer may run concurrently with readers
  /// (compute() writes it only in its serial fixed-point phase; the serving
  /// monitor only reads it).
  std::vector<bool> member;
  int iterations = 0;
  double volume_fraction = 0.0;  ///< |XI| / |X|.
  bool completed = false;
  std::string failure;
  /// Verification time (Property 3).  Like ReachResult::seconds it
  /// depends on the pool width; nn_evaluations is the machine-independent
  /// cost.
  double seconds = 0.0;
  long nn_evaluations = 0;
  long partitions = 0;

  [[nodiscard]] std::size_t cell_count() const { return member.size(); }
  /// Geometric box of the flattened cell index.
  [[nodiscard]] IBox cell_box(const sys::Box& domain, std::size_t index) const;
  [[nodiscard]] bool contains(const sys::Box& domain,
                              const la::Vec& point) const;
  /// True iff every cell of the window [lo_k, hi_k] (inclusive, per
  /// dimension) is a member: a walk over `member`, dimension 0 fastest,
  /// that allocates nothing.  An empty window (lo > hi anywhere) holds no
  /// cells and is vacuously covered; otherwise a dimension mismatch or a
  /// window escaping the grid fails closed.  Requires member.size() ==
  /// Π grid.  SafetyMonitor's margin check asks this, and the fixed point's
  /// sweep walks the same way; CellSetTree answers it by a pruned descent.
  [[nodiscard]] bool all_members(const std::vector<int>& lo_k,
                                 const std::vector<int>& hi_k) const;
};

class InvariantSetComputer {
 public:
  /// Throws std::invalid_argument when the safe region is unbounded, when
  /// `config.grid` is neither empty (40 cells per dimension) nor one entry
  /// per state dimension, when the system has no state dimension, when an
  /// entry is below 1, or when the cell count overflows size_t.
  InvariantSetComputer(sys::SystemPtr system,
                       const ctrl::Controller& controller,
                       InvariantConfig config);

  /// Runs the fixed point over the system's safe region.  Budget exhaustion,
  /// and a max_iterations cap that ends the sweep while it is still
  /// removing cells, are reported via result.completed = false, never
  /// thrown: either way the member set certifies nothing.
  [[nodiscard]] InvariantResult compute() const;

 private:
  sys::SystemPtr system_;
  const ctrl::Controller& controller_;
  InvariantConfig config_;
};

}  // namespace cocktail::verify
