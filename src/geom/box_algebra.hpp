#pragma once
/// \file box_algebra.hpp
/// Set-like operations on boxes and box lists: difference, simple
/// coalescing and clipping.  These underpin ghost-region planning and
/// regridding (computing newly refined / de-refined regions).

#include <vector>

#include "geom/box.hpp"
#include "geom/box_list.hpp"

namespace ssamr {

/// a \ b as a list of up to six disjoint boxes.  Returns {a} when disjoint,
/// {} when b covers a.  Levels must match.
std::vector<Box> box_difference(const Box& a, const Box& b);

/// a \ (union of subtrahends): disjoint boxes covering exactly the cells of
/// `a` not covered by any subtrahend.
std::vector<Box> box_difference(const Box& a,
                                const std::vector<Box>& subtrahends);

/// Merge adjacent boxes that form a rectilinear union (simple pairwise
/// face-merge until a fixed point).  Input boxes must be disjoint.
std::vector<Box> coalesce(std::vector<Box> boxes);

/// The cells of `boxes` inside the union of `region`, coalesced: every box
/// of `boxes` (outer loop) is intersected with every box of `region`
/// (inner loop), and the non-empty pieces, in that order, go to
/// coalesce().  Both lists must be disjoint.  Clipping a new level's
/// cluster boxes against its parent level's boxes keeps it properly
/// nested where a cluster bridges a gap between parents.
std::vector<Box> clip_and_coalesce(const std::vector<Box>& boxes,
                                   const std::vector<Box>& region);

}  // namespace ssamr
