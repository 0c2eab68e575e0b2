#include "amr/interp.hpp"

#include <algorithm>
#include <cmath>

#include "geom/box_algebra.hpp"

namespace ssamr {

namespace {

/// minmod limiter for trilinear slopes.
real_t minmod(real_t a, real_t b) {
  if (a * b <= 0) return 0;
  return std::abs(a) < std::abs(b) ? a : b;
}

/// One-dimensional limited slope of the coarse field at cell i (global
/// coarse coordinates, clamped to the patch box).
real_t slope(const GridFunction& u, int c, IntVec cell, int axis,
             const Box& b) {
  IntVec lo = cell, hi = cell;
  lo.at(axis) = std::max(cell[axis] - 1, b.lo()[axis]);
  hi.at(axis) = std::min(cell[axis] + 1, b.hi()[axis]);
  if (lo[axis] == cell[axis] || hi[axis] == cell[axis]) return 0;
  const real_t left = u(c, cell.x, cell.y, cell.z) - u(c, lo.x, lo.y, lo.z);
  const real_t right = u(c, hi.x, hi.y, hi.z) - u(c, cell.x, cell.y, cell.z);
  return minmod(left, right);
}

}  // namespace

void prolong_region(const GridLevel& coarse, Patch& fine, const Box& region) {
  GridFunction& uf = fine.data();
  for (coord_t k = region.lo().z; k <= region.hi().z; ++k) {
    for (coord_t j = region.lo().y; j <= region.hi().y; ++j) {
      for (coord_t i = region.lo().x; i <= region.hi().x; ++i) {
        if (!uf.storage_box().contains(IntVec(i, j, k))) continue;
        const IntVec cc = coarse_cell(IntVec(i, j, k));
        const std::size_t pi = coarse.find_patch_containing(cc);
        if (pi == GridLevel::npos) continue;
        const GridFunction& uc = coarse.patch(pi).data();
        const Box& cb = coarse.patch(pi).box();
        for (int c = 0; c < uf.ncomp(); ++c) {
          real_t v = uc(c, cc.x, cc.y, cc.z);
          // Offset of the fine cell centre from the coarse cell centre, in
          // coarse-cell units: ((sub + 0.5) / kRefinementRatio) - 0.5.
          const real_t fx =
              (static_cast<real_t>(i - cc.x * kRefinementRatio) + 0.5) /
                  static_cast<real_t>(kRefinementRatio) -
              0.5;
          const real_t fy =
              (static_cast<real_t>(j - cc.y * kRefinementRatio) + 0.5) /
                  static_cast<real_t>(kRefinementRatio) -
              0.5;
          const real_t fz =
              (static_cast<real_t>(k - cc.z * kRefinementRatio) + 0.5) /
                  static_cast<real_t>(kRefinementRatio) -
              0.5;
          v += fx * slope(uc, c, cc, 0, cb) + fy * slope(uc, c, cc, 1, cb) +
               fz * slope(uc, c, cc, 2, cb);
          uf(c, i, j, k) = v;
        }
      }
    }
  }
}

void prolong_level(const GridLevel& coarse, GridLevel& fine_lvl) {
  for (Patch& p : fine_lvl.patches()) prolong_region(coarse, p, p.box());
}

void copy_overlap(const GridLevel& old_lvl, GridLevel& fine_lvl) {
  for (Patch& np : fine_lvl.patches()) {
    for (const Patch& op : old_lvl.patches()) {
      const Box overlap = np.box().intersection(op.box());
      if (!overlap.empty()) np.data().copy_from(op.data(), overlap);
    }
  }
}

void fill_coarse_fine_ghosts(const GridLevel& coarse, GridLevel& fine_lvl) {
  for (Patch& p : fine_lvl.patches()) {
    const Box ghost_box = p.box().grown(p.data().ghost());
    // Prolong only the ghost shell (grown box minus interior); cells that
    // sibling patches cover will be overwritten by the subsequent
    // intra-level exchange with the exact fine values.
    for (const Box& shell : box_difference(ghost_box, p.box()))
      prolong_region(coarse, p, shell);
  }
}

void restrict_level(const GridLevel& fine_lvl, GridLevel& coarse) {
  constexpr coord_t r = kRefinementRatio;
  const real_t inv = 1.0 / static_cast<real_t>(r * r * r);
  for (Patch& cp : coarse.patches()) {
    GridFunction& uc = cp.data();
    for (const Patch& fp : fine_lvl.patches()) {
      const Box shadow = fp.box().coarsened().intersection(cp.box());
      if (shadow.empty()) continue;
      const GridFunction& uf = fp.data();
      for (int c = 0; c < uc.ncomp(); ++c) {
        for (coord_t k = shadow.lo().z; k <= shadow.hi().z; ++k) {
          for (coord_t j = shadow.lo().y; j <= shadow.hi().y; ++j) {
            for (coord_t i = shadow.lo().x; i <= shadow.hi().x; ++i) {
              real_t sum = 0;
              for (coord_t dk = 0; dk < r; ++dk)
                for (coord_t dj = 0; dj < r; ++dj)
                  for (coord_t di = 0; di < r; ++di)
                    sum += uf(c, i * r + di, j * r + dj, k * r + dk);
              uc(c, i, j, k) = sum * inv;
            }
          }
        }
      }
    }
  }
}

}  // namespace ssamr
