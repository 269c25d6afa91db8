#include "verify/sfc.h"

#include <algorithm>
#include <stdexcept>

namespace cocktail::verify {

bool sfc_fits(std::size_t dim, int bits) {
  if (dim == 0 || bits < 0) return false;
  return static_cast<std::size_t>(bits) * dim <= 63 && bits <= 32;
}

int sfc_grid_levels(const std::vector<int>& grid) {
  if (grid.empty())
    throw std::invalid_argument("sfc_grid_levels: empty grid");
  int side = 1;
  for (const int cells : grid) {
    if (cells <= 0)
      throw std::invalid_argument("sfc_grid_levels: non-positive cell count");
    side = std::max(side, cells);
  }
  int levels = 0;
  while ((std::int64_t{1} << levels) < side) ++levels;
  return levels;
}

std::uint64_t sfc_encode(const std::vector<std::uint32_t>& coords, int bits) {
  const std::size_t dim = coords.size();
  std::uint64_t key = 0;
  for (int b = 0; b < bits; ++b)
    for (std::size_t d = 0; d < dim; ++d)
      key |= static_cast<std::uint64_t>((coords[d] >> b) & 1u)
             << (static_cast<std::size_t>(b) * dim + d);
  return key;
}

void sfc_decode(std::uint64_t key, std::size_t dim, int bits,
                std::vector<std::uint32_t>& coords) {
  coords.assign(dim, 0);
  for (int b = 0; b < bits; ++b)
    for (std::size_t d = 0; d < dim; ++d)
      coords[d] |= static_cast<std::uint32_t>(
          (key >> (static_cast<std::size_t>(b) * dim + d)) & 1u)
          << b;
}

}  // namespace cocktail::verify
