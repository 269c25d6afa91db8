// Linearized spatial trees over SFC keys (ROADMAP: "Spatial indexing for
// certificates and reachability"; keys in verify/sfc.h).
//
// Two structures share the cstone-style recipe — sort by Morton key, build
// bottom-up in fixed key order, answer queries by pruned descent:
//
//  * CellSetTree: a sparse 2^d-tree over a *set of grid cells* (the member
//    set of a verify::InvariantResult).  Leaves are the sorted Morton keys
//    of the member cells; each level merges 2^d siblings, collapsing
//    all-full groups into a single kFull mark.  The window query
//    all_members() — "is every cell of [lo_k, hi_k] a member?" — descends
//    only nodes intersecting the window, so the serve-path margin check is
//    O(window boundary) instead of the odometer's O(window volume).
//
//  * BoxTree: a Morton-sorted bounding-volume hierarchy over interval
//    boxes (the reach frontier).  Leaves hold runs of boxes sorted by the
//    SFC key of their midpoint (ties broken by input index — the build is
//    a pure function of the input sequence); internal nodes carry exact
//    min/max hulls.  Hulls prune, but every accepting answer re-checks the
//    exact stored endpoints, so quantization never decides membership.
//
// Soundness: non-finite/invalid box components *taint* their BoxTree
// subtree — tainted hulls never short-circuit an accepting answer, and the
// per-box predicates fail closed on NaN (box_inside_region mirrors the
// PR 8 SafetyMonitor::certified fix).  NaN-safe hull folding skips invalid
// components so one corrupted box cannot poison pruning for valid
// siblings.
//
// Determinism: both builds are serial, bottom-up, in sorted key order —
// bitwise-identical structures for any worker count, so tree-backed
// verdicts inherit the repo's worker-invariance contract.  Both trees are
// immutable after build(); concurrent const queries need no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/vec.h"
#include "sys/system.h"
#include "verify/interval.h"
#include "verify/sfc.h"

namespace cocktail::verify {

/// Fail-closed box-in-region test: every component must be finite and
/// valid (NaN/Inf certify nothing), and inside the region on every bounded
/// dimension (unbounded region dimensions always pass).  The one predicate
/// behind ReachabilityAnalyzer's safe-region sweep, per-box and tree-wide.
[[nodiscard]] bool box_inside_region(const IBox& box, const sys::Box& region);

/// Sparse linearized 2^d-tree over a member-cell set (grid dims need not
/// be powers of two; the tree covers the enclosing 2^levels super-grid and
/// absent cells are non-members).
class CellSetTree {
 public:
  /// Empty tree: no cell is a member (all_members fails closed).
  CellSetTree() = default;

  /// True when `grid` packs into a 64-bit Morton key (dim in
  /// [1, kMaxSfcDim], positive cell counts, dim * levels <= 63 bits).
  [[nodiscard]] static bool supports(const std::vector<int>& grid);

  /// Builds the tree from a flattened member array (dim 0 fastest, the
  /// InvariantResult layout).  Throws std::invalid_argument when
  /// !supports(grid) or member.size() != prod(grid).
  [[nodiscard]] static CellSetTree build(const std::vector<int>& grid,
                                         const std::vector<bool>& member);

  /// True iff *every* cell of the window [lo_k, hi_k] (inclusive, per
  /// dimension) is a member.  An empty window (lo > hi anywhere) holds no
  /// cells and is vacuously covered — that takes precedence; otherwise a
  /// dimension mismatch or a window escaping the grid fails closed.
  /// Bitwise-identical verdicts to the flat odometer walk over the same
  /// member array.
  [[nodiscard]] bool all_members(const std::vector<int>& lo_k,
                                 const std::vector<int>& hi_k) const;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] int levels() const noexcept { return levels_; }
  [[nodiscard]] std::size_t member_count() const noexcept { return members_; }
  /// Mixed (explicitly stored) nodes — the tree's memory footprint.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return dim_ == 0 ? 0 : children_.size() >> dim_;
  }

 private:
  static constexpr std::int32_t kEmptyChild = -1;  ///< no member below.
  static constexpr std::int32_t kFullChild = -2;   ///< all members below.

  std::size_t dim_ = 0;
  int levels_ = 0;
  std::vector<int> grid_;
  std::size_t members_ = 0;
  std::int32_t root_ = kEmptyChild;
  /// Node i's children occupy children_[i << dim_ .. (i+1) << dim_): a
  /// node index, kEmptyChild, or kFullChild.
  std::vector<std::int32_t> children_;
};

/// Morton-sorted bounding-volume hierarchy over interval boxes.
class BoxTree {
 public:
  /// Empty tree: contains no point, intersects nothing, and all_inside()
  /// is vacuously true.
  BoxTree() = default;

  /// Builds the hierarchy; a pure function of the box sequence (keys sort
  /// with input-index tie-breaks).  Throws std::invalid_argument on mixed
  /// box dimensions.  Non-finite/invalid boxes are admitted but tainted:
  /// they satisfy no query and disable hull short-circuits above them.
  [[nodiscard]] static BoxTree build(std::vector<IBox> boxes);

  [[nodiscard]] std::size_t size() const noexcept { return boxes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return boxes_.empty(); }
  [[nodiscard]] const std::vector<IBox>& boxes() const noexcept {
    return boxes_;
  }

  /// True iff some box contains `point` (exact endpoint comparisons;
  /// non-finite points and dimension mismatches fail closed).
  [[nodiscard]] bool contains_point(const la::Vec& point) const;

  /// Ascending input indices of every box intersecting `query` (exact
  /// Interval::intersects per dimension; NaN components intersect
  /// nothing).  Empty on a dimension mismatch.
  [[nodiscard]] std::vector<std::size_t> intersecting(const IBox& query) const;

  /// True iff every box passes box_inside_region(box, region).  Untainted
  /// subtrees whose hull lies inside `region` accept without descending;
  /// everything else is decided at the leaves by the exact predicate.
  [[nodiscard]] bool all_inside(const sys::Box& region) const;

 private:
  struct Node {
    IBox hull;                ///< NaN-safe min/max fold of the subtree.
    std::int32_t left = -1;   ///< internal: children; leaf: -1.
    std::int32_t right = -1;
    std::size_t begin = 0;    ///< leaf: range into order_.
    std::size_t end = 0;
    bool tainted = false;     ///< subtree holds a non-finite/invalid box.
  };

  std::size_t dim_ = 0;
  std::vector<IBox> boxes_;
  std::vector<std::size_t> order_;  ///< leaf order: Morton-sorted indices.
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace cocktail::verify
