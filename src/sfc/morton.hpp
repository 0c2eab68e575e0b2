#pragma once
/// \file morton.hpp
/// Morton (Z-order) encoding for 3-D index-space coordinates.
///
/// The HDDA maps the application's hierarchical index space onto a 1-D
/// locality-preserving key space using space-filling curves; Morton order is
/// the cheap default, Hilbert order (hilbert.hpp) the higher-locality
/// alternative.

#include <cstdint>

#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Maximum bits per coordinate that fit a 64-bit Morton key (3 × 21 = 63).
inline constexpr int kMortonBitsPerDim = 21;

/// Interleave the low 21 bits of x, y, z into a 63-bit Morton key.
/// Coordinates must be non-negative and < 2^21.
key_t morton_encode(coord_t x, coord_t y, coord_t z);

/// Convenience overload for IntVec.
inline key_t morton_encode(IntVec p) { return morton_encode(p.x, p.y, p.z); }

/// Inverse of morton_encode.
IntVec morton_decode(key_t key);

}  // namespace ssamr
