#pragma once
/// \file interp.hpp
/// Inter-grid transfer operators of the Berger–Oliger scheme:
/// *prolongation* (coarse → fine, used to initialize newly refined patches
/// and to fill fine ghost cells at coarse-fine boundaries) and
/// *restriction* (fine → coarse, injecting the better fine solution back).

#include "amr/hierarchy.hpp"
#include "amr/level.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Fill `region` (cells of fine patch `fine`, global fine coordinates) by
/// limited trilinear interpolation from the parent cell centres on the
/// coarse level.  Cells whose parent is not found on the coarse level are
/// left untouched.
void prolong_region(const GridLevel& coarse, Patch& fine, const Box& region);

/// Initialize every cell of every patch of `fine_lvl` from `coarse`.
void prolong_level(const GridLevel& coarse, GridLevel& fine_lvl);

/// Copy data from `old_lvl` patches into `fine_lvl` patches where boxes
/// overlap (same level) — used during regridding so already-fine data is
/// not lost, then prolong the remainder.
void copy_overlap(const GridLevel& old_lvl, GridLevel& fine_lvl);

/// Fill fine ghost cells not covered by sibling patches by prolongation
/// from the coarse level (coarse-fine boundary treatment).
void fill_coarse_fine_ghosts(const GridLevel& coarse, GridLevel& fine_lvl);

/// Restrict (average) fine data onto the underlying coarse cells.
void restrict_level(const GridLevel& fine_lvl, GridLevel& coarse);

}  // namespace ssamr
