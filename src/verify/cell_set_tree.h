// Linearized spatial tree over SFC keys (verify/sfc.h) for certificates,
// after the cstone recipe: sort by Morton key, build bottom-up in fixed
// key order, answer queries by pruned descent.
//
// CellSetTree is a sparse 2^d-tree over a *set of grid cells* (the member
// set of a verify::InvariantResult).  Leaves are the sorted Morton keys of
// the member cells; each level merges 2^d siblings, collapsing all-full
// groups into a single kFull mark.  The window query all_members() — "is
// every cell of [lo_k, hi_k] a member?" — descends only nodes intersecting
// the window, so the serve-path margin check is O(window boundary) instead
// of the odometer's O(window volume) (InvariantResult::all_members, whose
// verdicts it equals).
//
// Determinism: the build is serial, bottom-up, in sorted key order —
// bitwise-identical structures for any worker count, so tree-backed
// verdicts inherit the repo's worker-invariance contract.  The tree is
// immutable after build(); concurrent const queries need no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "verify/sfc.h"

namespace cocktail::verify {

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
  /// Bitwise-identical verdicts to InvariantResult::all_members over the
  /// same grid and member array.
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

}  // namespace cocktail::verify
