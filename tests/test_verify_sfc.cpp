// Tests for the SFC key layer (verify/sfc.h) and the linearized spatial
// trees built on it (verify/box_tree.h).  The load-bearing property
// throughout: tree-backed verdicts are bitwise identical to the flat
// reference scans they replaced — randomized member sets, windows, boxes,
// and query points, including the fail-closed NaN/Inf cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sys/system.h"
#include "util/rng.h"
#include "verify/box_tree.h"
#include "verify/interval.h"
#include "verify/reach.h"
#include "verify/sfc.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::BoxTree;
using verify::CellSetTree;
using verify::IBox;
using verify::Interval;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

int rand_int(util::Rng& rng, int lo, int hi) {  // inclusive range.
  return lo + static_cast<int>(rng.uniform(0.0, 1.0) *
                               static_cast<double>(hi - lo + 1)) %
                  (hi - lo + 1);
}

TEST(Sfc, KeyRoundTripAcrossDims) {
  util::Rng rng(7);
  for (std::size_t dim = 1; dim <= verify::kMaxSfcDim; ++dim) {
    const int bits = verify::sfc_max_bits(dim);
    ASSERT_TRUE(verify::sfc_fits(dim, bits));
    ASSERT_FALSE(verify::sfc_fits(dim, bits + 1));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint32_t> coords(dim);
      for (auto& c : coords)
        c = static_cast<std::uint32_t>(
            rng.uniform(0.0, std::ldexp(1.0, bits)));
      const std::uint64_t key = verify::sfc_encode(coords, bits);
      EXPECT_EQ(verify::sfc_decode(key, dim, bits), coords);
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

TEST(Sfc, CellCoordFailsClosedOnNonFinite) {
  EXPECT_EQ(verify::sfc_cell_coord(kNan, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(0.5, kNan, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(kInf, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(0.5, 1.0, 0.0, 8), 0u);  // hi <= lo.
  EXPECT_EQ(verify::sfc_cell_coord(-3.0, 0.0, 1.0, 8), 0u);   // clamp low.
  EXPECT_EQ(verify::sfc_cell_coord(99.0, 0.0, 1.0, 8), 7u);   // clamp high.
  EXPECT_EQ(verify::sfc_cell_coord(0.51, 0.0, 1.0, 8), 4u);
}

/// Reference for CellSetTree::all_members: the odometer window walk over
/// the flattened member array (dim 0 fastest) the tree replaced.
bool flat_all_members(const std::vector<int>& grid,
                      const std::vector<bool>& member,
                      const std::vector<int>& lo_k,
                      const std::vector<int>& hi_k) {
  if (lo_k.size() != grid.size() || hi_k.size() != grid.size()) return false;
  for (std::size_t d = 0; d < grid.size(); ++d)
    if (lo_k[d] > hi_k[d]) return true;  // empty window: vacuous.
  for (std::size_t d = 0; d < grid.size(); ++d)
    if (lo_k[d] < 0 || hi_k[d] >= grid[d]) return false;
  std::vector<int> k = lo_k;
  for (;;) {
    std::size_t index = 0, stride = 1;
    for (std::size_t d = 0; d < k.size(); ++d) {
      index += static_cast<std::size_t>(k[d]) * stride;
      stride *= static_cast<std::size_t>(grid[d]);
    }
    if (!member[index]) return false;
    std::size_t d = 0;
    while (d < k.size() && ++k[d] > hi_k[d]) {
      k[d] = lo_k[d];
      ++d;
    }
    if (d == k.size()) break;
  }
  return true;
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
      EXPECT_EQ(tree.all_members(lo_k, hi_k),
                flat_all_members(grid, member, lo_k, hi_k))
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

TEST(BoxTree, QueriesMatchFlatScans) {
  util::Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t dim = static_cast<std::size_t>(rand_int(rng, 1, 4));
    const std::size_t count = static_cast<std::size_t>(rand_int(rng, 0, 60));
    std::vector<IBox> boxes;
    boxes.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      boxes.push_back(random_box(rng, dim, 2.0));
    const BoxTree tree = BoxTree::build(boxes);
    ASSERT_EQ(tree.size(), count);

    for (int q = 0; q < 30; ++q) {
      Vec point(dim);
      for (auto& x : point) x = rng.uniform(-2.5, 2.5);
      bool flat = false;
      for (const IBox& box : boxes)
        flat = flat || verify::box_contains(box, point);
      EXPECT_EQ(tree.contains_point(point), flat);

      const IBox query = random_box(rng, dim, 2.0);
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < count; ++i) {
        bool hit = true;
        for (std::size_t d = 0; d < dim; ++d)
          hit = hit && boxes[i][d].intersects(query[d]);
        if (hit) expect.push_back(i);
      }
      EXPECT_EQ(tree.intersecting(query), expect);
    }

    const sys::Box region = sys::Box::symmetric(dim, 2.2);
    bool flat_inside = true;
    for (const IBox& box : boxes)
      flat_inside = flat_inside && verify::box_inside_region(box, region);
    EXPECT_EQ(tree.all_inside(region), flat_inside);
    // Generous region: everything fits (vacuously true when empty).
    EXPECT_TRUE(tree.all_inside(sys::Box::symmetric(dim, 1e6)));
  }
}

TEST(BoxTree, NonFiniteBoxesAreTaintedNotPoisonous) {
  std::vector<IBox> boxes;
  boxes.push_back(verify::make_box({0.0, 0.0}, {1.0, 1.0}));
  IBox bad(2);
  bad[0] = {kNan, kNan};
  bad[1] = {0.0, kInf};
  boxes.push_back(bad);
  boxes.push_back(verify::make_box({-1.0, -1.0}, {-0.5, -0.5}));
  const BoxTree tree = BoxTree::build(boxes);

  // The corrupted box satisfies no query and never certifies safety...
  EXPECT_FALSE(tree.all_inside(sys::Box::symmetric(2, 100.0)));
  EXPECT_TRUE(tree.intersecting(bad).empty());
  // ...but valid siblings still answer exactly.
  EXPECT_TRUE(tree.contains_point({0.5, 0.5}));
  EXPECT_TRUE(tree.contains_point({-0.75, -0.75}));
  EXPECT_FALSE(tree.contains_point({3.0, 3.0}));
  EXPECT_FALSE(tree.contains_point({kNan, 0.5}));  // NaN point fails closed.
  const std::vector<std::size_t> hits =
      tree.intersecting(verify::make_box({0.4, 0.4}, {0.6, 0.6}));
  EXPECT_EQ(hits, (std::vector<std::size_t>{0}));

  // An unbounded-but-valid region dimension still passes valid boxes.
  sys::Box half(Vec{-2.0, -sys::Box::kUnbounded},
                Vec{2.0, sys::Box::kUnbounded});
  std::vector<IBox> fine;
  fine.push_back(verify::make_box({-1.0, -50.0}, {1.0, 50.0}));
  EXPECT_TRUE(BoxTree::build(fine).all_inside(half));

  EXPECT_THROW((void)BoxTree::build({verify::make_box({0.0}, {1.0}),
                                     verify::make_box({0.0, 0.0}, {1.0, 1.0})}),
               std::invalid_argument);
}

TEST(BoxTree, BuildIsPureFunctionOfSequence) {
  util::Rng rng(31);
  std::vector<IBox> boxes;
  for (int i = 0; i < 40; ++i) boxes.push_back(random_box(rng, 3, 1.5));
  const BoxTree a = BoxTree::build(boxes);
  const BoxTree b = BoxTree::build(boxes);
  // Bitwise-equal stored boxes and identical answers on shared queries.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(a.boxes()[i][d].lo(), b.boxes()[i][d].lo());
      EXPECT_EQ(a.boxes()[i][d].hi(), b.boxes()[i][d].hi());
    }
  for (int q = 0; q < 50; ++q) {
    const IBox query = random_box(rng, 3, 1.5);
    EXPECT_EQ(a.intersecting(query), b.intersecting(query));
  }
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
