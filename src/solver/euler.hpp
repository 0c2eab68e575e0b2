#pragma once
/// \file euler.hpp
/// 3-D compressible Euler equations: finite-volume Rusanov (local
/// Lax–Friedrichs) scheme for a γ-law gas.  This is the substrate for the
/// Richtmyer–Meshkov kernel the paper evaluates with.

#include <array>
#include <functional>

#include "amr/integrator.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Conserved variable indices.
enum EulerComp : int {
  kRho = 0,   ///< density
  kMomX = 1,  ///< x-momentum
  kMomY = 2,  ///< y-momentum
  kMomZ = 3,  ///< z-momentum
  kEner = 4,  ///< total energy density
  kEulerNcomp = 5
};

/// A conserved state vector.
using EulerState = std::array<real_t, kEulerNcomp>;

/// Primitive description of a gas state.
struct EulerPrimitive {
  real_t rho = 1;
  real_t u = 0, v = 0, w = 0;
  real_t p = 1;
};

/// Convert primitive → conserved for a γ-law gas.
EulerState to_conserved(const EulerPrimitive& prim, real_t gamma);

/// Convert conserved → primitive; density/pressure are floored at tiny
/// positive values for robustness.
EulerPrimitive to_primitive(const EulerState& cons, real_t gamma);

/// Sound speed of a primitive state.
real_t sound_speed(const EulerPrimitive& prim, real_t gamma);

/// Physical flux along one direction (0=x, 1=y, 2=z).
EulerState euler_flux(const EulerState& cons, int axis, real_t gamma);

/// Rusanov numerical flux between two states along an axis.
EulerState rusanov_flux(const EulerState& left, const EulerState& right,
                        int axis, real_t gamma);

/// Initial-condition callback: primitive state at a physical point.
using EulerInitialCondition =
    std::function<EulerPrimitive(real_t x, real_t y, real_t z)>;

/// First-order Rusanov finite-volume Euler kernel: piecewise-constant
/// states at every face (very robust), so the stencil is one cell wide.
class EulerOperator final : public PatchOperator {
 public:
  EulerOperator(real_t gamma, EulerInitialCondition ic);

  int ncomp() const override { return kEulerNcomp; }
  int ghost() const override { return 1; }
  void initialize(Patch& p, real_t dx) const override;
  real_t max_wave_speed(const Patch& p) const override;
  void advance(Patch& p, real_t dt, real_t dx) const override;
  bool supports_flux_capture() const override { return true; }
  void advance_capture(Patch& p, real_t dt, real_t dx,
                       FaceFluxes& fluxes) const override;

 private:
  EulerState state_at(const GridFunction& u, coord_t i, coord_t j,
                      coord_t k) const;
  /// Face flux between cells c (at index) and its +axis neighbour.
  EulerState face_flux(const GridFunction& u, IntVec cell, int axis) const;
  void advance_impl(Patch& p, real_t dt, real_t dx,
                    FaceFluxes* fluxes) const;
  real_t gamma_;
  EulerInitialCondition ic_;
};

}  // namespace ssamr
