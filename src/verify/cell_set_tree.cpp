#include "verify/cell_set_tree.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace cocktail::verify {

bool CellSetTree::supports(const std::vector<int>& grid) {
  if (grid.empty() || grid.size() > kMaxSfcDim) return false;
  for (const int cells : grid)
    if (cells <= 0) return false;
  return sfc_fits(grid.size(), sfc_grid_levels(grid));
}

CellSetTree CellSetTree::build(const std::vector<int>& grid,
                               const std::vector<bool>& member) {
  if (!supports(grid))
    throw std::invalid_argument(
        "CellSetTree: grid does not pack into a 64-bit Morton key");
  std::size_t total = 1;
  for (const int cells : grid) total *= static_cast<std::size_t>(cells);
  if (member.size() != total)
    throw std::invalid_argument(
        "CellSetTree: member array does not match the grid");

  CellSetTree tree;
  tree.dim_ = grid.size();
  tree.levels_ = sfc_grid_levels(grid);
  tree.grid_ = grid;

  // Leaf level: Morton keys of the member cells, sorted.  The flat member
  // array is dim-0-fastest, so cell coordinates come from div/mod chains.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> coords(tree.dim_);
  for (std::size_t flat = 0; flat < member.size(); ++flat) {
    if (!member[flat]) continue;
    std::size_t rem = flat;
    for (std::size_t d = 0; d < tree.dim_; ++d) {
      coords[d] = static_cast<std::uint32_t>(
          rem % static_cast<std::size_t>(grid[d]));
      rem /= static_cast<std::size_t>(grid[d]);
    }
    keys.push_back(sfc_encode(coords, tree.levels_));
  }
  std::sort(keys.begin(), keys.end());
  tree.members_ = keys.size();

  // Bottom-up merge, one level at a time in ascending key order: 2^dim
  // siblings group under `key >> dim`; an all-full group collapses to a
  // kFull mark, anything else becomes an explicit node.  The node pool is
  // appended in this fixed order, so identical inputs build identical
  // trees regardless of any surrounding parallelism.
  const std::size_t fanout = std::size_t{1} << tree.dim_;
  std::vector<std::pair<std::uint64_t, std::int32_t>> level;
  level.reserve(keys.size());
  for (const std::uint64_t key : keys) level.emplace_back(key, kFullChild);
  for (int depth = tree.levels_; depth > 0; --depth) {
    std::vector<std::pair<std::uint64_t, std::int32_t>> parents;
    std::size_t i = 0;
    while (i < level.size()) {
      const std::uint64_t parent_key = level[i].first >> tree.dim_;
      std::size_t j = i;
      while (j < level.size() && (level[j].first >> tree.dim_) == parent_key)
        ++j;
      bool all_full = (j - i) == fanout;
      for (std::size_t t = i; all_full && t < j; ++t)
        all_full = level[t].second == kFullChild;
      if (all_full) {
        parents.emplace_back(parent_key, kFullChild);
      } else {
        const auto node = static_cast<std::int32_t>(tree.node_count());
        tree.children_.resize(tree.children_.size() + fanout, kEmptyChild);
        for (std::size_t t = i; t < j; ++t)
          tree.children_[static_cast<std::size_t>(node) * fanout +
                         (level[t].first & (fanout - 1))] = level[t].second;
        parents.emplace_back(parent_key, node);
      }
      i = j;
    }
    level = std::move(parents);
  }
  tree.root_ = level.empty() ? kEmptyChild : level.front().second;
  return tree;
}

// SNDLINT-ALLOW(nan-blind-compare): pure integer cell-coordinate walk — callers quantize finite states before building the window (SafetyMonitor isfinite-guards first), and out-of-range windows fail closed below
bool CellSetTree::all_members(const std::vector<int>& lo_k,
                              const std::vector<int>& hi_k) const {
  if (dim_ == 0 || lo_k.size() != dim_ || hi_k.size() != dim_) return false;
  // An empty window holds no cells, so it is vacuously covered — even if
  // another dimension escapes the grid (there is nothing to certify).
  for (std::size_t d = 0; d < dim_; ++d)
    if (lo_k[d] > hi_k[d]) return true;
  for (std::size_t d = 0; d < dim_; ++d)
    if (lo_k[d] < 0 || hi_k[d] >= grid_[d]) return false;

  // Descend only nodes whose 2^depth-sided cell range intersects the
  // window; kFull accepts a whole subtree, kEmpty rejects any overlap.
  const std::size_t fanout = std::size_t{1} << dim_;
  const auto covered = [&](auto&& self, std::int32_t ref, int depth,
                           const std::array<std::int64_t, kMaxSfcDim>& origin)
      -> bool {
    for (std::size_t d = 0; d < dim_; ++d) {
      const std::int64_t node_lo = origin[d] << depth;
      const std::int64_t node_hi = node_lo + (std::int64_t{1} << depth) - 1;
      if (node_hi < lo_k[d] || node_lo > hi_k[d]) return true;  // disjoint.
    }
    if (ref == kFullChild) return true;
    if (ref == kEmptyChild) return false;  // overlapped cells: non-members.
    for (std::size_t c = 0; c < fanout; ++c) {
      std::array<std::int64_t, kMaxSfcDim> child = origin;
      for (std::size_t d = 0; d < dim_; ++d)
        child[d] = (origin[d] << 1) |
                   static_cast<std::int64_t>((c >> d) & 1u);
      if (!self(self, children_[static_cast<std::size_t>(ref) * fanout + c],
                depth - 1, child))
        return false;
    }
    return true;
  };
  return covered(covered, root_, levels_,
                 std::array<std::int64_t, kMaxSfcDim>{});
}

}  // namespace cocktail::verify
