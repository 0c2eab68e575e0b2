#pragma once
/// \file cluster_br.hpp
/// Berger–Rigoutsos point clustering.
///
/// Regridding step (2) of the paper: "clustering flagged points" into a
/// small set of rectilinear boxes with bounded fill efficiency.  This is the
/// classic signature/hole/inflection algorithm of Berger & Rigoutsos (IEEE
/// Trans. Systems, Man & Cybernetics, 1991).
///
/// The recursion works on runs of flagged cells — x-intervals on one (y, z)
/// row — rather than on single cells: a refinement band crosses each row
/// once, so one run stands for a whole row's flags.  Every
/// quantity the algorithm reads (bounding box, flag count, per-plane
/// signatures) is a function of the flag set alone, so clustering runs
/// gives exactly the boxes clustering their cells would.  The box and
/// count are read off the signatures, and a cut's children get theirs
/// from the parent's: an internal node reads its runs to split them and
/// the smaller side's runs once more, and a leaf reads none.

#include <vector>

#include "geom/box.hpp"
#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Tuning knobs of the clustering pass.
struct ClusterConfig {
  /// Accept a box when (flagged cells / box cells) >= efficiency.
  real_t efficiency = 0.7;
  /// Splits never create a piece with extent < min_box_size along the cut
  /// axis (the paper's "minimum box size" constraint); an accepted box can
  /// still be smaller when its flag cloud is smaller.
  coord_t min_box_size = 4;
  /// Stop splitting when a box already holds <= this many cells.
  std::int64_t small_box_cells = 64;
  /// Hard cap on recursion depth (safety).
  int max_depth = 32;
};

/// The flagged cells x0..x1 (inclusive) of the row (y, z).
struct FlagRun {
  coord_t x0 = 0, x1 = 0;
  coord_t y = 0, z = 0;
};

/// Cluster flagged runs (at some level l) into boxes at the same level.
/// Runs must be non-empty (x0 <= x1) and pairwise disjoint; their order
/// and whether adjacent runs are merged do not affect the result.  The
/// returned boxes are disjoint, each contains every flag inside its
/// bounds, and their union covers all flags.  Returns an empty list when
/// `runs` is empty.
std::vector<Box> cluster_runs(std::vector<FlagRun> runs, level_t level,
                              const ClusterConfig& cfg);

/// Cluster flagged cells (at some level l) into boxes at the same level:
/// cluster_runs() over the runs the cells form.  `flags` may contain
/// duplicates and may come in any order; input already sorted by
/// (z, y, x) skips the sort.
std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                               level_t level, const ClusterConfig& cfg);

}  // namespace ssamr
