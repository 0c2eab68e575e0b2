#pragma once
/// \file richtmyer_meshkov.hpp
/// The paper's evaluation application: a 3-D compressible kernel solving
/// the Richtmyer–Meshkov instability — a planar shock travelling along x
/// strikes a perturbed density interface, depositing vorticity that grows
/// into the characteristic mushroom structures and keeps the refinement
/// region moving and deforming.

#include "solver/euler.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Problem parameters.  The physical domain is [0,Lx]×[0,Ly]×[0,Lz] where
/// L = extent(level 0) · dx0.
struct RichtmyerMeshkovConfig {
  real_t gamma = 1.4;
  /// Shock Mach number in the light gas.
  real_t mach = 1.5;
  /// Pre-shock light-gas state.
  real_t rho_light = 1.0;
  real_t p0 = 1.0;
  /// Density ratio heavy/light across the interface.
  real_t density_ratio = 3.0;
  /// Shock plane x-position as a fraction of Lx.
  real_t shock_x = 0.15;
  /// Unperturbed interface x-position as a fraction of Lx.
  real_t interface_x = 0.3;
  /// Perturbation amplitude as a fraction of Lx.
  real_t amplitude = 0.03;
  /// Transverse wave counts.
  int waves_y = 2;
  int waves_z = 1;
  /// Domain physical size (used to convert fractions; set from the mesh).
  real_t lx = 1.0, ly = 0.25, lz = 0.25;
};

/// Build the initial condition for the RM problem.  Post-shock state is
/// computed from Rankine–Hugoniot relations at the given Mach number.
EulerInitialCondition make_rm_initial_condition(
    const RichtmyerMeshkovConfig& cfg);

/// Convenience factory: an EulerOperator preconfigured for the RM problem.
EulerOperator make_rm_operator(const RichtmyerMeshkovConfig& cfg);

/// Post-shock primitive state from the Rankine–Hugoniot relations (exposed
/// for tests).
EulerPrimitive rankine_hugoniot_post_shock(real_t rho0, real_t p0,
                                           real_t mach, real_t gamma);

}  // namespace ssamr
