#include "amr/flux_register.hpp"

#include <unordered_set>

#include "sfc/morton.hpp"
#include "util/error.hpp"

namespace ssamr {

key_t FluxRegister::face_key(IntVec cell, int axis) {
  // Coarse cells are non-negative in our domains; shift defensively so
  // small negative ghost-adjacent indices cannot collide.
  const IntVec shifted = cell + IntVec::splat(4);
  SSAMR_ASSERT(shifted.x >= 0 && shifted.y >= 0 && shifted.z >= 0,
               "face key out of range");
  return (morton_encode(shifted) << 2) | static_cast<key_t>(axis);
}

FluxRegister::FluxRegister(const GridLevel& coarse, const GridLevel& fine,
                           const Box& coarse_domain, int ncomp)
    : ncomp_(ncomp) {
  SSAMR_REQUIRE(ncomp >= 1, "ncomp must be >= 1");

  // Coarsened fine region.
  std::vector<Box> shadow;
  shadow.reserve(fine.num_patches());
  for (const Patch& p : fine.patches())
    shadow.push_back(p.box().coarsened());
  auto in_shadow = [&](IntVec c) {
    for (const Box& b : shadow)
      if (b.contains(c)) return true;
    return false;
  };

  // Walk the boundary cells of every shadow box; register faces whose
  // neighbour is outside the fine region but inside the domain.  Two
  // shadows can share a boundary face, so each face registers once.
  std::unordered_set<key_t> registered;
  auto try_register = [&](IntVec outside, int axis, IntVec face_cell,
                          int sign) {
    if (!coarse_domain.contains(outside)) return;
    if (in_shadow(outside)) return;
    if (coarse.find_patch_containing(outside) == GridLevel::npos) return;
    const key_t key = face_key(face_cell, axis);
    if (!registered.insert(key).second) return;
    Record rec;
    rec.cell = face_cell;
    rec.axis = axis;
    rec.sign = sign;
    rec.outside = outside;
    rec.delta.assign(static_cast<std::size_t>(ncomp_), 0);
    records_.push_back(std::move(rec));
  };

  for (const Box& b : shadow) {
    for (int axis = 0; axis < kDim; ++axis) {
      IntVec e(0, 0, 0);
      e.at(axis) = 1;
      // Low side: inside cells on the low face plane; outside = inside − e.
      // The shared face is the low face of `inside`.
      Box low = b;
      {
        IntVec hi = b.hi();
        hi.at(axis) = b.lo()[axis];
        low = Box(b.lo(), hi, b.level());
      }
      for (coord_t k = low.lo().z; k <= low.hi().z; ++k)
        for (coord_t j = low.lo().y; j <= low.hi().y; ++j)
          for (coord_t i = low.lo().x; i <= low.hi().x; ++i) {
            const IntVec inside(i, j, k);
            // Outside is the LOW-side cell: mass into it is −F·A.
            try_register(inside - e, axis, inside, -1);
          }
      // High side: inside cells on the high plane; outside = inside + e;
      // the shared face is the low face of `outside`.
      Box high = b;
      {
        IntVec lo = b.lo();
        lo.at(axis) = b.hi()[axis];
        high = Box(lo, b.hi(), b.level());
      }
      for (coord_t k = high.lo().z; k <= high.hi().z; ++k)
        for (coord_t j = high.lo().y; j <= high.hi().y; ++j)
          for (coord_t i = high.lo().x; i <= high.hi().x; ++i) {
            const IntVec outside = IntVec(i, j, k) + e;
            // Outside is the HIGH-side cell: mass into it is +F·A.
            try_register(outside, axis, outside, +1);
          }
    }
  }
}

void FluxRegister::add_coarse(const std::vector<FaceFluxes>& fluxes,
                              real_t dt_c) {
  for (Record& rec : records_) {
    // The face is the low face of rec.cell along rec.axis; find a coarse
    // patch whose flux storage covers that face index.
    for (const FaceFluxes& ff : fluxes) {
      const GridFunction& f = ff.flux(rec.axis);
      if (!f.box().contains(rec.cell)) continue;
      for (int c = 0; c < ncomp_; ++c)
        rec.delta[static_cast<std::size_t>(c)] -=
            dt_c * f(c, rec.cell.x, rec.cell.y, rec.cell.z);
      break;
    }
  }
}

void FluxRegister::add_fine(const std::vector<FaceFluxes>& fluxes,
                            real_t dt_f) {
  const real_t area_scale =
      1.0 / (static_cast<real_t>(kRefinementRatio) *
             static_cast<real_t>(kRefinementRatio));
  for (Record& rec : records_) {
    // Fine faces covering the coarse face: along the axis the fine face
    // plane is at cell*r; transverse indices span r each.
    IntVec base = rec.cell * kRefinementRatio;
    for (const FaceFluxes& ff : fluxes) {
      const GridFunction& f = ff.flux(rec.axis);
      // Quick reject: the base face must lie in this fine patch's face box.
      if (!f.box().contains(base)) continue;
      const int a = rec.axis;
      const int t1 = (a + 1) % 3;
      const int t2 = (a + 2) % 3;
      for (coord_t u = 0; u < kRefinementRatio; ++u)
        for (coord_t v = 0; v < kRefinementRatio; ++v) {
          IntVec face = base;
          face.at(t1) += u;
          face.at(t2) += v;
          SSAMR_ASSERT(f.box().contains(face),
                       "fine face outside captured storage");
          for (int c = 0; c < ncomp_; ++c)
            rec.delta[static_cast<std::size_t>(c)] +=
                dt_f * area_scale * f(c, face.x, face.y, face.z);
        }
      break;
    }
  }
}

void FluxRegister::apply(GridLevel& coarse, real_t dx_c) const {
  SSAMR_REQUIRE(dx_c > 0, "dx must be positive");
  for (const Record& rec : records_) {
    const std::size_t pi = coarse.find_patch_containing(rec.outside);
    if (pi == GridLevel::npos) continue;
    GridFunction& u = coarse.patch(pi).data();
    for (int c = 0; c < ncomp_; ++c)
      u(c, rec.outside.x, rec.outside.y, rec.outside.z) +=
          static_cast<real_t>(rec.sign) *
          rec.delta[static_cast<std::size_t>(c)] / dx_c;
  }
}

}  // namespace ssamr
