#pragma once
/// \file integrator.hpp
/// Recursive Berger–Oliger time integration with subcycling, plus the
/// regridding driver (flag → cluster → rebuild levels → transfer data).
///
/// This is the "Time Integration / Inter-Grid Operations / Regriding"
/// triple of §3 of the paper.

#include <memory>
#include <vector>

#include "amr/cluster_br.hpp"
#include "amr/face_flux.hpp"
#include "amr/flux_register.hpp"
#include "amr/flagging.hpp"
#include "amr/ghost.hpp"
#include "amr/hierarchy.hpp"
#include "amr/interp.hpp"
#include "util/types.hpp"

namespace ssamr {

/// The numerical kernel applied to each patch (the application).
class PatchOperator {
 public:
  virtual ~PatchOperator() = default;

  /// Field components the kernel evolves.
  virtual int ncomp() const = 0;
  /// Ghost width the kernel's stencil needs.
  virtual int ghost() const = 0;

  /// Set initial conditions on a patch.  `dx` is the cell width at the
  /// patch's level; cell centres are at ((i+0.5)dx, (j+0.5)dx, (k+0.5)dx).
  virtual void initialize(Patch& p, real_t dx) const = 0;

  /// Largest signal speed on the patch (for CFL control); must be > 0 for
  /// any state the kernel can reach.
  virtual real_t max_wave_speed(const Patch& p) const = 0;

  /// Advance the patch by dt: read p.data() (ghosts pre-filled), write the
  /// updated interior into p.scratch().  The integrator swaps time levels.
  virtual void advance(Patch& p, real_t dt, real_t dx) const = 0;

  /// True when the kernel can report its face fluxes (required for
  /// conservative refluxing at coarse-fine boundaries).
  virtual bool supports_flux_capture() const { return false; }

  /// Like advance(), additionally storing the numerical face fluxes used
  /// for the update into `fluxes` (see face_flux.hpp for the convention).
  /// Only called when supports_flux_capture() is true.
  virtual void advance_capture(Patch& p, real_t dt, real_t dx,
                               FaceFluxes& fluxes) const;
};

/// Integration parameters.  The CFL number is a constant of
/// integrator.cpp, and prolongation is always trilinear (interp.hpp).
struct IntegratorConfig {
  /// Regrid every this many coarse steps (the paper's experiments regrid
  /// every ~5 iterations).
  int regrid_interval = 5;
  /// Mesh width of the coarsest level.
  real_t dx0 = 1.0;
  BoundaryKind bc = BoundaryKind::Outflow;
  ClusterConfig cluster;
  /// Enforce conservation at coarse-fine boundaries by refluxing
  /// (requires a PatchOperator with supports_flux_capture()).
  bool reflux = false;
};

/// The Berger–Oliger driver.
class BergerOliger {
 public:
  /// All referenced objects must outlive the integrator.
  BergerOliger(GridHierarchy& hierarchy, const PatchOperator& op,
               const GradientFlagger& flagger, IntegratorConfig cfg);

  /// Set initial conditions and build the initial refined levels (repeated
  /// flag/cluster passes until the hierarchy is stable or max depth).
  void initialize();

  /// Stable coarse-level timestep under the configured CFL number.
  real_t compute_dt() const;

  /// Advance one coarse timestep (recursively subcycling finer levels),
  /// regridding every regrid_interval steps.  Returns the dt taken.
  real_t advance_step();

  /// Flag/cluster/rebuild all refinable levels now.
  void regrid();

  /// Coarse steps taken since initialize().
  int step() const { return step_; }
  /// Number of regrids performed (including the one in initialize()).
  int regrid_count() const { return regrid_count_; }
  /// Physical time reached.
  real_t time() const { return time_; }
  /// Mesh width at a level.
  real_t dx_at(level_t l) const;

  const IntegratorConfig& config() const { return cfg_; }

 private:
  void advance_level(int l, real_t dt, FluxRegister* parent_register);
  void fill_ghosts(int l);
  void regrid_level_above(int l);

  GridHierarchy& hier_;
  const PatchOperator& op_;
  const GradientFlagger& flagger_;
  IntegratorConfig cfg_;
  int step_ = 0;
  int regrid_count_ = 0;
  real_t time_ = 0;
};

}  // namespace ssamr
