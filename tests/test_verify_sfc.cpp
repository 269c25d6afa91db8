// Tests for the SFC key layer (verify/sfc.h), the cell-set tree built on it
// (verify/cell_set_tree.h) and pave_boxes' key-ordered output.  The
// load-bearing property: the tree's verdicts are bitwise identical to
// InvariantResult::all_members, the flat odometer walk it indexes —
// randomized member sets and windows, including empty windows and windows
// escaping the grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "verify/cell_set_tree.h"
#include "verify/interval.h"
#include "verify/invariant.h"
#include "verify/reach.h"
#include "verify/sfc.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::CellSetTree;
using verify::IBox;

int rand_int(util::Rng& rng, int lo, int hi) {  // inclusive range.
  return lo + static_cast<int>(rng.uniform(0.0, 1.0) *
                               static_cast<double>(hi - lo + 1)) %
                  (hi - lo + 1);
}

TEST(Sfc, KeyRoundTripAcrossDims) {
  util::Rng rng(7);
  std::vector<std::uint32_t> decoded;
  for (std::size_t dim = 1; dim <= verify::kMaxSfcDim; ++dim) {
    // The widest key: 63 usable bits, at most 32 per uint32 coordinate.
    const int bits = static_cast<int>(std::min<std::size_t>(32, 63 / dim));
    ASSERT_TRUE(verify::sfc_fits(dim, bits));
    ASSERT_FALSE(verify::sfc_fits(dim, bits + 1));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint32_t> coords(dim);
      for (auto& c : coords)
        c = static_cast<std::uint32_t>(
            rng.uniform(0.0, std::ldexp(1.0, bits)));
      const std::uint64_t key = verify::sfc_encode(coords, bits);
      verify::sfc_decode(key, dim, bits, decoded);
      EXPECT_EQ(decoded, coords);
      // The parent-cell property the tree build relies on: halving every
      // coordinate is one right-shift of the whole key by dim.
      std::vector<std::uint32_t> parent(dim);
      for (std::size_t d = 0; d < dim; ++d) parent[d] = coords[d] >> 1;
      EXPECT_EQ(verify::sfc_encode(parent, bits - 1), key >> dim);
    }
  }
}

TEST(Sfc, GridLevelsAndValidation) {
  EXPECT_EQ(verify::sfc_grid_levels({1}), 0);
  EXPECT_EQ(verify::sfc_grid_levels({2, 2}), 1);
  EXPECT_EQ(verify::sfc_grid_levels({5, 3}), 3);  // covers 8x8.
  EXPECT_THROW((void)verify::sfc_grid_levels({}), std::invalid_argument);
  EXPECT_THROW((void)verify::sfc_grid_levels({4, 0}), std::invalid_argument);
}

TEST(CellSetTree, MatchesFlatOdometerOnRandomizedSets) {
  util::Rng rng(11);
  const double densities[] = {0.0, 0.35, 0.8, 1.0};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t dim = static_cast<std::size_t>(rand_int(rng, 1, 3));
    std::vector<int> grid(dim);
    std::size_t total = 1;
    for (auto& g : grid) {
      g = rand_int(rng, 1, 9);  // non-power-of-two sides included.
      total *= static_cast<std::size_t>(g);
    }
    const double density = densities[trial % 4];
    std::vector<bool> member(total);
    for (std::size_t c = 0; c < total; ++c)
      member[c] = rng.uniform(0.0, 1.0) < density;

    ASSERT_TRUE(CellSetTree::supports(grid));
    const CellSetTree tree = CellSetTree::build(grid, member);
    verify::InvariantResult flat;
    flat.grid = grid;
    flat.member = member;
    EXPECT_EQ(tree.member_count(),
              static_cast<std::size_t>(
                  std::count(member.begin(), member.end(), true)));

    for (int q = 0; q < 40; ++q) {
      std::vector<int> lo_k(dim), hi_k(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        // Windows may be empty (lo > hi) or escape the grid.
        lo_k[d] = rand_int(rng, -1, grid[d]);
        hi_k[d] = rand_int(rng, -1, grid[d]);
      }
      EXPECT_EQ(tree.all_members(lo_k, hi_k), flat.all_members(lo_k, hi_k))
          << "trial " << trial << " query " << q;
    }
    // Full-grid window == every cell a member.
    std::vector<int> zero(dim, 0), top(dim);
    for (std::size_t d = 0; d < dim; ++d) top[d] = grid[d] - 1;
    EXPECT_EQ(tree.all_members(zero, top), tree.member_count() == total);
  }
}

TEST(CellSetTree, FailsClosedOnBadInput) {
  const CellSetTree empty;  // default: certifies nothing.
  EXPECT_FALSE(empty.all_members({0}, {0}));
  const CellSetTree tree =
      CellSetTree::build({4, 4}, std::vector<bool>(16, true));
  EXPECT_FALSE(tree.all_members({0}, {0}));           // dim mismatch.
  EXPECT_FALSE(tree.all_members({0, 0}, {0, 4}));     // escapes grid.
  EXPECT_FALSE(tree.all_members({-1, 0}, {0, 0}));    // escapes grid.
  EXPECT_TRUE(tree.all_members({2, 2}, {1, 1}));      // empty: vacuous.
  EXPECT_THROW((void)CellSetTree::build({4, 4}, std::vector<bool>(15, true)),
               std::invalid_argument);
  EXPECT_FALSE(CellSetTree::supports(std::vector<int>(9, 2)));  // dim > 8.
  // 3 x 22 levels = 66 key bits: too wide for one 64-bit Morton key.
  EXPECT_FALSE(CellSetTree::supports({1 << 22, 1 << 22, 1 << 22}));
}

IBox random_box(util::Rng& rng, std::size_t dim, double span) {
  IBox box(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const double lo = rng.uniform(-span, span);
    box[d] = {lo, lo + rng.uniform(0.0, 0.4 * span)};
  }
  return box;
}

TEST(PaveBoxes, OutputInvariantUnderInputPermutation) {
  util::Rng rng(41);
  std::vector<IBox> boxes;
  for (int i = 0; i < 30; ++i) boxes.push_back(random_box(rng, 2, 1.0));
  const std::vector<IBox> paved = verify::pave_boxes(boxes, 0.125, 4096);

  std::vector<IBox> reversed(boxes.rbegin(), boxes.rend());
  const std::vector<IBox> paved_rev = verify::pave_boxes(reversed, 0.125, 4096);
  ASSERT_EQ(paved.size(), paved_rev.size());
  for (std::size_t i = 0; i < paved.size(); ++i)
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(paved[i][d].lo(), paved_rev[i][d].lo());
      EXPECT_EQ(paved[i][d].hi(), paved_rev[i][d].hi());
    }
  // And the cover is sound either way.
  for (const IBox& box : boxes) {
    for (std::size_t d = 0; d < 2; ++d) {
      Vec corner(2);
      corner[0] = d == 0 ? box[0].lo() : box[0].hi();
      corner[1] = box[1].mid();
      bool covered = false;
      for (const IBox& cell : paved)
        covered = covered || verify::box_contains(cell, corner);
      EXPECT_TRUE(covered);
    }
  }
}

}  // namespace
}  // namespace cocktail
