#pragma once
/// \file box.hpp
/// Rectilinear index-space regions ("bounding boxes").
///
/// GrACE maintains the component grids of the adaptive hierarchy as lists of
/// bounding boxes, each a rectilinear region with a lower bound, an upper
/// bound, and a stride given by its refinement level.  Box is the same
/// abstraction: inclusive cell bounds [lo, hi] expressed in the index space
/// of the box's own refinement level.

#include <iosfwd>
#include <utility>

#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Refinement ratio between consecutive levels: a level-l cell splits into
/// kRefinementRatio cells per direction at level l+1 (paper: factor 2).
inline constexpr coord_t kRefinementRatio = 2;

/// kRefinementRatio^levels: the cells per direction of one cell refined
/// `levels` times (1 for levels <= 0).  A power of two, so exact in coord_t
/// and in real_t.
constexpr coord_t refinement_scale(int levels) {
  coord_t r = 1;
  for (int i = 0; i < levels; ++i) r *= kRefinementRatio;
  return r;
}

/// The cell one level coarser that cell `fine` lies in: each coordinate
/// divided by kRefinementRatio, rounded toward −∞ (integer division
/// rounds negative coordinates toward zero).
constexpr IntVec coarse_cell(IntVec fine) {
  const auto down = [](coord_t a) {
    return a / kRefinementRatio - (a % kRefinementRatio < 0 ? 1 : 0);
  };
  return {down(fine.x), down(fine.y), down(fine.z)};
}

/// A rectilinear region of cells at one refinement level.
///
/// Bounds are inclusive: the box covers cells lo..hi in each direction.
/// A default-constructed Box is empty.
class Box {
 public:
  /// Construct the empty box (level 0).
  Box();

  /// Construct from inclusive bounds.  If any hi component is < the matching
  /// lo component the box is empty.
  Box(IntVec lo, IntVec hi, level_t level = 0);

  /// Box of given extent anchored at `lo`.
  static Box from_extent(IntVec lo, IntVec extent, level_t level = 0);

  /// Inclusive lower bound.
  IntVec lo() const { return lo_; }
  /// Inclusive upper bound.
  IntVec hi() const { return hi_; }
  /// Refinement level the bounds are expressed in (0 = coarsest).
  level_t level() const { return level_; }

  /// True when the box covers no cells.
  bool empty() const;

  /// Number of cells per direction (0 when empty).
  IntVec extent() const;

  /// Total number of cells (0 when empty).
  std::int64_t cells() const;

  /// True when the cell `p` lies inside the box.
  bool contains(IntVec p) const;

  /// True when `other` lies entirely inside this box (same level required).
  bool contains(const Box& other) const;

  /// True when this box and `other` share at least one cell.
  bool intersects(const Box& other) const;

  /// The overlap region (empty box when disjoint).  Levels must match.
  Box intersection(const Box& other) const;

  /// Grow by n cells on every face (shrink with negative n).
  Box grown(coord_t n) const;

  /// Translate by the given offset.
  Box shifted(IntVec offset) const;

  /// Map to the index space one level finer (each cell becomes
  /// kRefinementRatio cells per direction).
  Box refined() const { return refined_by(1); }

  /// Map to the index space `levels` levels finer (each cell becomes
  /// kRefinementRatio^levels cells per direction).
  Box refined_by(int levels) const;

  /// Map to the index space one level coarser (floor/ceil so the coarse box
  /// covers the fine one).
  Box coarsened() const;

  /// Direction with the largest extent (ties broken toward x).
  int longest_axis() const;

  /// Direction with the smallest extent (ties broken toward x).
  int shortest_axis() const;

  /// Longest extent divided by shortest extent; 0 for the empty box.
  real_t aspect_ratio() const;

  /// Split into two boxes along `axis`: the first keeps cells
  /// [lo, lo+offset-1], the second [lo+offset, hi].  Requires
  /// 0 < offset < extent()[axis].
  std::pair<Box, Box> split(int axis, coord_t offset) const;

  friend bool operator==(const Box& a, const Box& b);
  friend bool operator!=(const Box& a, const Box& b) { return !(a == b); }

 private:
  IntVec lo_;
  IntVec hi_;
  level_t level_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Smallest box (at the common level) containing both arguments; if either
/// is empty the other is returned.  Levels must match when both non-empty.
Box bounding_union(const Box& a, const Box& b);

}  // namespace ssamr
