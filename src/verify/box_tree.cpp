#include "verify/box_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace cocktail::verify {

bool box_inside_region(const IBox& box, const sys::Box& region) {
  if (box.size() != region.dim()) return false;
  for (std::size_t i = 0; i < box.size(); ++i) {
    // Fail closed on corrupted enclosures: a NaN/Inf endpoint (an invalid
    // Interval escaping interval arithmetic) certifies nothing — without
    // this guard the bounded-dimension comparisons below are NaN-blind
    // (both compare false) and a garbage box would count as safe.
    if (!std::isfinite(box[i].lo()) || !std::isfinite(box[i].hi()) ||
        !box[i].valid())
      return false;
    if (std::isfinite(region.lo[i]) && box[i].lo() < region.lo[i])
      return false;
    if (std::isfinite(region.hi[i]) && box[i].hi() > region.hi[i])
      return false;
  }
  return true;
}

// --- CellSetTree ------------------------------------------------------------

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

// --- BoxTree ----------------------------------------------------------------

namespace {

constexpr std::size_t kBoxTreeLeafSize = 8;

/// One box component participates in hull folding only when valid (a NaN
/// endpoint fails lo <= hi); an interval that contains/intersects nothing
/// cannot widen a prune decision, so skipping it is conservative.
bool hull_foldable(const Interval& iv) { return iv.valid(); }

bool component_tainted(const Interval& iv) {
  return !std::isfinite(iv.lo()) || !std::isfinite(iv.hi()) || !iv.valid();
}

}  // namespace

BoxTree BoxTree::build(std::vector<IBox> boxes) {
  BoxTree tree;
  tree.boxes_ = std::move(boxes);
  if (tree.boxes_.empty()) return tree;
  tree.dim_ = tree.boxes_.front().size();
  for (const IBox& box : tree.boxes_)
    if (box.size() != tree.dim_)
      throw std::invalid_argument("BoxTree: mixed box dimensions");

  // Key domain: NaN-safe hull of the midpoints' enclosing boxes.  The
  // accepting-direction fold ignores NaN endpoints, so corrupted boxes
  // land on key 0 without distorting the ordering of valid ones.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> domain_lo(tree.dim_, inf), domain_hi(tree.dim_, -inf);
  for (const IBox& box : tree.boxes_)
    for (std::size_t d = 0; d < tree.dim_; ++d) {
      if (!hull_foldable(box[d])) continue;
      domain_lo[d] = std::min(domain_lo[d], box[d].lo());
      domain_hi[d] = std::max(domain_hi[d], box[d].hi());
    }

  const int bits = std::min(16, sfc_max_bits(tree.dim_));
  const auto cells = static_cast<std::uint32_t>(std::uint64_t{1} << bits);
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(tree.boxes_.size());
  std::vector<std::uint32_t> coords(tree.dim_);
  for (std::size_t i = 0; i < tree.boxes_.size(); ++i) {
    for (std::size_t d = 0; d < tree.dim_; ++d)
      coords[d] = sfc_cell_coord(tree.boxes_[i][d].mid(), domain_lo[d],
                                 domain_hi[d], cells);
    keyed[i] = {sfc_encode(coords, bits), i};
  }
  // Input-index tie-break: the build is a pure function of the sequence.
  std::sort(keyed.begin(), keyed.end());
  tree.order_.resize(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i)
    tree.order_[i] = keyed[i].second;

  // Leaves over fixed-size runs of the sorted order, then bottom-up
  // pairing — every node's hull is an exact min/max fold (no arithmetic,
  // nothing for rounding to shrink) and taint propagates by OR.
  std::vector<std::int32_t> level;
  for (std::size_t begin = 0; begin < tree.order_.size();
       begin += kBoxTreeLeafSize) {
    Node leaf;
    leaf.begin = begin;
    leaf.end = std::min(tree.order_.size(), begin + kBoxTreeLeafSize);
    leaf.hull.assign(tree.dim_, Interval{inf, -inf});
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      const IBox& box = tree.boxes_[tree.order_[i]];
      for (std::size_t d = 0; d < tree.dim_; ++d) {
        if (component_tainted(box[d])) leaf.tainted = true;
        if (!hull_foldable(box[d])) continue;
        leaf.hull[d] = {std::min(leaf.hull[d].lo(), box[d].lo()),
                        std::max(leaf.hull[d].hi(), box[d].hi())};
      }
    }
    level.push_back(static_cast<std::int32_t>(tree.nodes_.size()));
    tree.nodes_.push_back(std::move(leaf));
  }
  while (level.size() > 1) {
    std::vector<std::int32_t> parents;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 == level.size()) {  // odd node passes up unchanged.
        parents.push_back(level[i]);
        continue;
      }
      Node parent;
      parent.left = level[i];
      parent.right = level[i + 1];
      const Node& left = tree.nodes_[static_cast<std::size_t>(parent.left)];
      const Node& right = tree.nodes_[static_cast<std::size_t>(parent.right)];
      parent.tainted = left.tainted || right.tainted;
      parent.hull.resize(tree.dim_);
      for (std::size_t d = 0; d < tree.dim_; ++d)
        parent.hull[d] = {std::min(left.hull[d].lo(), right.hull[d].lo()),
                          std::max(left.hull[d].hi(), right.hull[d].hi())};
      parents.push_back(static_cast<std::int32_t>(tree.nodes_.size()));
      tree.nodes_.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
  tree.root_ = level.front();
  return tree;
}

bool BoxTree::contains_point(const la::Vec& point) const {
  if (root_ < 0 || point.size() != dim_) return false;
  for (std::size_t d = 0; d < dim_; ++d)
    if (!std::isfinite(point[d])) return false;  // NaN certifies nothing.
  std::vector<std::int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    bool in_hull = true;
    for (std::size_t d = 0; in_hull && d < dim_; ++d)
      in_hull = node.hull[d].contains(point[d]);
    if (!in_hull) continue;  // empty hulls ([+inf,-inf]) prune here too.
    if (node.left < 0) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const IBox& box = boxes_[order_[i]];
        bool inside = true;
        for (std::size_t d = 0; inside && d < dim_; ++d)
          inside = box[d].contains(point[d]);
        if (inside) return true;
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  return false;
}

std::vector<std::size_t> BoxTree::intersecting(const IBox& query) const {
  std::vector<std::size_t> hits;
  if (root_ < 0 || query.size() != dim_) return hits;
  std::vector<std::int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    bool overlaps = true;
    for (std::size_t d = 0; overlaps && d < dim_; ++d)
      overlaps = node.hull[d].intersects(query[d]);
    if (!overlaps) continue;
    if (node.left < 0) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const IBox& box = boxes_[order_[i]];
        bool hit = true;
        for (std::size_t d = 0; hit && d < dim_; ++d)
          hit = box[d].intersects(query[d]);
        if (hit) hits.push_back(order_[i]);
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

// SNDLINT-ALLOW(nan-blind-compare): traversal bookkeeping only — every accepting decision routes through box_inside_region's isfinite-guarded fail-closed predicate, and tainted subtrees never short-circuit
bool BoxTree::all_inside(const sys::Box& region) const {
  if (boxes_.empty()) return true;
  if (root_ < 0 || region.dim() != dim_) return false;
  const auto descend = [&](auto&& self, std::int32_t index) -> bool {
    const Node& node = nodes_[static_cast<std::size_t>(index)];
    // An untainted hull inside the region covers its whole subtree: every
    // member endpoint is finite (taint would have been set) and bracketed
    // by the hull's fold.
    if (!node.tainted && box_inside_region(node.hull, region)) return true;
    if (node.left < 0) {
      for (std::size_t i = node.begin; i < node.end; ++i)
        if (!box_inside_region(boxes_[order_[i]], region)) return false;
      return true;
    }
    return self(self, node.left) && self(self, node.right);
  };
  return descend(descend, root_);
}

}  // namespace cocktail::verify
