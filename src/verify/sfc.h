// Space-filling-curve (Morton / Z-order) keys for the spatial index, after
// the cstone idea of SFC keys + a linearized octree over state space.
//
// A d-dimensional cell coordinate is packed into one 64-bit key by bit
// interleaving: key bit (b*d + i) is bit b of coordinate i.  Sorting keys
// therefore sorts cells in Z-order, adjacent keys are spatially close, and
// `key >> d` is the key of the parent cell one octree level up — the
// property CellSetTree's bottom-up build (verify/cell_set_tree.h) relies
// on.  pave_boxes (verify/reach.h) emits its covering cells in key order.
//
// Keys pack integer cell coordinates exactly: nothing here quantizes a
// float, so nothing needs outward rounding.  All functions are pure and
// deterministic; encode/decode round-trip bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cocktail::verify {

/// Dimension cap for the cell-set octree (fanout = 2^dim children per
/// node).  Morton packing itself only needs dim * bits <= 63.
inline constexpr std::size_t kMaxSfcDim = 8;

/// True when a `dim`-dimensional grid with `bits` bits per dimension packs
/// into one 64-bit Morton key.
[[nodiscard]] bool sfc_fits(std::size_t dim, int bits);

/// Smallest level count L with 2^L >= grid[d] for every dimension (the
/// octree leaf depth covering the grid).  Throws std::invalid_argument on
/// an empty grid or a non-positive cell count.
[[nodiscard]] int sfc_grid_levels(const std::vector<int>& grid);

/// Interleaves `coords` (each < 2^bits) into a Morton key.  Requires
/// sfc_fits(coords.size(), bits); coordinate bits above `bits` are ignored.
[[nodiscard]] std::uint64_t sfc_encode(const std::vector<std::uint32_t>& coords,
                                       int bits);

/// Inverse of sfc_encode into a caller-provided buffer of size `dim`.
void sfc_decode(std::uint64_t key, std::size_t dim, int bits,
                std::vector<std::uint32_t>& coords);

}  // namespace cocktail::verify
