#pragma once
/// \file trace_generator.hpp
/// Deterministic synthetic SAMR workload traces.
///
/// The paper's evaluation kernel (3-D Richtmyer–Meshkov on a 128×32×32 base
/// with 3 levels of factor-2 refinement) is too expensive to integrate for
/// hundreds of steps inside a benchmark on one core, so the full-scale
/// experiments use this generator instead: a travelling, increasingly
/// perturbed interface is flagged and clustered with the *same*
/// Berger–Rigoutsos machinery the real solver uses, producing composite box
/// lists whose population, clustering and drift mimic the RM run.  The real
/// solver (src/solver) drives the same pipeline at smaller scale in the
/// examples and integration tests.

#include <vector>

#include "amr/cluster_br.hpp"
#include "amr/particles.hpp"
#include "geom/box.hpp"
#include "geom/box_list.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Parameters of the synthetic interface evolution.
struct TraceConfig {
  /// Base-level domain (paper: 128×32×32).
  Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(128, 32, 32), 0);
  /// Total levels including the base (paper: base + 3 refinements = 4).
  int max_levels = 4;
  /// Initial interface position as a fraction of the domain x-extent.
  real_t interface_x0 = 0.25;
  /// Interface speed in fractions of the x-extent per epoch; the interface
  /// reflects off the domain ends.
  real_t speed = 0.03;
  /// Perturbation amplitude at epoch 0, in base-level cells.
  real_t amplitude0 = 0.5;
  /// Amplitude growth per epoch, in base-level cells (RM growth is roughly
  /// linear after shock passage).
  real_t growth = 0.12;
  /// Saturation amplitude in base-level cells (nonlinear RM growth stalls;
  /// also keeps the refined workload bounded over long runs).
  real_t max_amplitude = 3.0;
  /// Transverse wave counts of the perturbation.
  int waves_y = 2;
  int waves_z = 1;
  /// Half-width of the flagged band around the interface, in cells of the
  /// level being flagged.
  real_t band_halfwidth = 2.0;
  ClusterConfig cluster;
  /// Optional particle cloud riding the interface (count 0 = no particles).
  /// Every epoch uses the same seeded draws with the cloud's center at the
  /// interface position, so it drifts coherently with the refined band (a
  /// shocked tracer-particle sheet); a source draws it once and then
  /// places it at each epoch (ParticleField::place).
  ParticleCloudConfig particles;
};

/// Generates the hierarchy's composite box list at any regrid epoch.
class SyntheticAmrTrace {
 public:
  explicit SyntheticAmrTrace(TraceConfig cfg);

  /// The composite (all-levels) box list at a regrid epoch >= 0.  Level 0
  /// is always the whole domain; deeper levels are clustered bands around
  /// the interface, properly nested by construction.
  BoxList boxes_at_epoch(int epoch) const;

  /// Interface x-position (fraction of x-extent) at an epoch, after
  /// reflections.
  real_t interface_position(int epoch) const;

  /// The particle cloud at a regrid epoch, centered on the interface.
  /// Empty when config().particles.count == 0.
  ParticleField particles_at_epoch(int epoch) const;

  const TraceConfig& config() const { return cfg_; }

 private:
  TraceConfig cfg_;
};

}  // namespace ssamr
