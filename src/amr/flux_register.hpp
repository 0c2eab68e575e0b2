#pragma once
/// \file flux_register.hpp
/// Conservative refluxing at coarse–fine boundaries (Berger & Colella
/// 1989).
///
/// When a fine level overlays part of a coarse level, the coarse cells
/// just *outside* the fine region were updated with the coarse face flux,
/// while the covered region evolved with the (better) fine fluxes.  The
/// mass books only balance if the coarse flux through every coarse–fine
/// boundary face is replaced by the time- and area-average of the fine
/// fluxes through it:
///
///     u_outside += s · ( Σ_subcycles Σ_finefaces Δt_f F_f A_f
///                        − Δt_c F_c A_c ) / V_c
///
/// The FluxRegister identifies those faces, accumulates both sides during
/// one coarse timestep, and applies the correction after the fine
/// subcycles are restricted.

#include <array>
#include <vector>

#include "amr/face_flux.hpp"
#include "amr/level.hpp"
#include "geom/box.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Register for one coarse/fine level pair over one coarse timestep.
class FluxRegister {
 public:
  /// Identify every coarse face on the boundary of the coarsened fine
  /// region (faces whose outside cell lies beyond the fine region but
  /// inside `coarse_domain`).
  FluxRegister(const GridLevel& coarse, const GridLevel& fine,
               const Box& coarse_domain, int ncomp);

  /// Record the coarse fluxes of one coarse step (call once, after the
  /// coarse level advanced).  `fluxes[i]` belongs to coarse patch i.
  void add_coarse(const std::vector<FaceFluxes>& fluxes, real_t dt_c);

  /// Accumulate the fine fluxes of one subcycle (call once per subcycle).
  /// `fluxes[i]` belongs to fine patch i.
  void add_fine(const std::vector<FaceFluxes>& fluxes, real_t dt_f);

  /// Apply the corrections to the coarse data.  `dx_c` is the coarse mesh
  /// width (the flux convention makes A/V = 1/dx_c after the
  /// kRefinementRatio-squared area factor handled in add_fine).
  void apply(GridLevel& coarse, real_t dx_c) const;

  /// Number of registered coarse–fine boundary faces.
  std::size_t num_faces() const { return records_.size(); }

 private:
  struct Record {
    IntVec cell;     ///< high-side coarse cell of the face (face = its low
                     ///< face along `axis`)
    int axis = 0;
    int sign = 0;    ///< +1: outside cell is `cell`; −1: outside is cell−e
    IntVec outside;  ///< the coarse cell receiving the correction
    std::vector<real_t> delta;  ///< Σ Δt_f F_f / r² − Δt_c F_c, per comp
  };

  static key_t face_key(IntVec cell, int axis);

  int ncomp_;
  std::vector<Record> records_;
};

}  // namespace ssamr
