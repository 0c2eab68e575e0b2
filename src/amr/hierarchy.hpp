#pragma once
/// \file hierarchy.hpp
/// The Berger–Oliger adaptive grid hierarchy: a stack of refinement levels
/// over a rectilinear domain, with regridding support.

#include <vector>

#include "amr/level.hpp"
#include "geom/box_list.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Configuration of an adaptive grid hierarchy.
struct HierarchyConfig {
  /// Domain at the coarsest level (level of the box must be 0).
  Box domain;
  /// Maximum number of levels including the base (paper: 3 levels of
  /// refinement over the base = 4 total; experiments use max_levels = 4).
  int max_levels = 4;
  /// Field components per patch.
  int ncomp = 1;
  /// Ghost width per patch.
  int ghost = 2;
  /// Minimum extent of any refined patch per direction.
  coord_t min_box_size = 4;
};

/// A dynamic adaptive grid hierarchy (Berger–Oliger structure).
///
/// Level 0 always covers the whole domain.  Finer levels are arbitrary
/// unions of boxes, properly nested inside their parents.
class GridHierarchy {
 public:
  explicit GridHierarchy(const HierarchyConfig& cfg);

  const HierarchyConfig& config() const { return cfg_; }

  /// Number of levels that currently exist (>= 1).
  int num_levels() const { return static_cast<int>(levels_.size()); }

  GridLevel& level(int l) { return levels_[static_cast<std::size_t>(l)]; }
  const GridLevel& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }

  /// The domain box mapped to level l's index space.
  Box domain_at(level_t l) const;

  /// Replace the patches of level l (and implicitly drop any levels deeper
  /// than the deepest non-empty new level).  Boxes must be at level l,
  /// non-overlapping, inside the domain, and — for l >= 2 — properly nested
  /// in level l-1.  The caller is responsible for re-initializing data
  /// (see interp.hpp for prolongation helpers).
  void set_level_boxes(level_t l, const BoxList& boxes);

  /// The composite box list of the whole hierarchy (all levels).
  BoxList composite_box_list() const;

  /// Total cells over all levels.
  std::int64_t total_cells() const;

  /// True when `boxes` at level l are properly nested in the current level
  /// l-1 patches (every cell's coarsening is covered).
  bool properly_nested(level_t l, const BoxList& boxes) const;

 private:
  HierarchyConfig cfg_;
  std::vector<GridLevel> levels_;
};

}  // namespace ssamr
