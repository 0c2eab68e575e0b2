#include "sfc/morton.hpp"

#include "util/error.hpp"

namespace ssamr {

namespace {
/// Spread the low 21 bits of v so each lands every third bit position.
std::uint64_t spread3(std::uint64_t v) {
  v &= 0x1fffff;  // 21 bits
  v = (v | (v << 32)) & 0x1f00000000ffffULL;
  v = (v | (v << 16)) & 0x1f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

/// Inverse of spread3.
std::uint64_t compact3(std::uint64_t v) {
  v &= 0x1249249249249249ULL;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ULL;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00fULL;
  v = (v ^ (v >> 8)) & 0x1f0000ff0000ffULL;
  v = (v ^ (v >> 16)) & 0x1f00000000ffffULL;
  v = (v ^ (v >> 32)) & 0x1fffff;
  return v;
}
}  // namespace

key_t morton_encode(coord_t x, coord_t y, coord_t z) {
  SSAMR_REQUIRE(x >= 0 && y >= 0 && z >= 0,
                "morton coordinates must be non-negative");
  SSAMR_REQUIRE(x < (coord_t{1} << kMortonBitsPerDim) &&
                    y < (coord_t{1} << kMortonBitsPerDim) &&
                    z < (coord_t{1} << kMortonBitsPerDim),
                "morton coordinate exceeds 21 bits");
  return spread3(static_cast<std::uint64_t>(x)) |
         (spread3(static_cast<std::uint64_t>(y)) << 1) |
         (spread3(static_cast<std::uint64_t>(z)) << 2);
}

IntVec morton_decode(key_t key) {
  return IntVec(static_cast<coord_t>(compact3(key)),
                static_cast<coord_t>(compact3(key >> 1)),
                static_cast<coord_t>(compact3(key >> 2)));
}

}  // namespace ssamr
