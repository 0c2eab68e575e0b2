#pragma once
/// \file sfc_index.hpp
/// Composite space-filling-curve ordering of a grid hierarchy's boxes.
///
/// GrACE's default partitioner linearizes the *composite* hierarchy: every
/// box, at whatever level, is mapped into the finest index space and ordered
/// along one space-filling curve, so that boxes adjacent in space (across
/// levels) are adjacent in the linear order.  Cutting that order into
/// contiguous chunks yields partitions with good inter- and intra-level
/// locality.

#include <vector>

#include "geom/box.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Which curve to linearize along.
enum class CurveKind { Morton, Hilbert };

/// Parameters for composite SFC ordering.
struct SfcConfig {
  CurveKind curve = CurveKind::Hilbert;
  /// The finest level that must be representable (keys are computed in this
  /// level's index space).
  level_t finest_level = 3;
  /// Bits per dimension of the key space; must cover the finest-level
  /// domain extent.
  int bits = 16;
};

/// Key of one box: its centroid mapped to the finest index space and
/// encoded along the configured curve.
key_t sfc_box_key(const Box& b, const SfcConfig& cfg);

/// Permutation of [0, boxes.size()) that sorts the boxes by sfc_box_key,
/// with ties broken by level (coarse first) then by input position — a
/// deterministic composite ordering.
std::vector<std::size_t> sfc_order(const std::vector<Box>& boxes,
                                   const SfcConfig& cfg);

}  // namespace ssamr
