#pragma once
/// \file workload.hpp
/// Computational work estimation for SAMR box lists.
///
/// Under Berger–Oliger subcycling a level-ℓ grid is updated r^ℓ times per
/// coarsest timestep (r = kRefinementRatio, geom/box.hpp), so its load per
/// coarse step is cells · r^ℓ (§3.1 of the paper: refined grids "not only
/// have a larger number of grid elements but are also updated more
/// frequently").  The partitioners distribute exactly this quantity.
///
/// The model is dual-constraint (AMReX load-balancing study, PAPERS.md):
/// a box's cost is its cell-update cost plus the cost of the particles it
/// covers, both priced in `Work` units:
///
///   cost(b) = cells(b) · kRefinementRatio^level
///           + particles_in(b) · kRefinementRatio^level · cost_per_particle
///
/// One cell update is one `Work` unit; node speeds (NodeSpec::peak_rate)
/// carry every other scale.
///
/// With no particle field attached the particle term vanishes and the
/// arithmetic is exactly the historical cells-only expression, so existing
/// golden artifacts are unaffected.  Particle counts are exactly additive
/// under same-level box splits (see amr/particles.hpp), so the audit's
/// W_k-conservation invariants hold for the dual-constraint cost too.

#include <vector>

#include "amr/particles.hpp"
#include "geom/box.hpp"
#include "geom/box_list.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// Work model parameters.
struct WorkModel {
  /// Work units per particle update; only priced when a particle field is
  /// attached.
  Work cost_per_particle{0.0};
  /// Optional particle field (not owned; must outlive the model's use).
  /// Null means cells-only cost, bit-identical to the historical model.
  const ParticleField* particles = nullptr;

  /// True when the particle term contributes to box costs.
  bool has_particles() const {
    return particles != nullptr && !particles->empty() &&
           cost_per_particle > Work{0};
  }
};

/// Dual-constraint work of one box per coarsest timestep, in `Work` units:
/// cells · kRefinementRatio^level (+ the particle term when a field is
/// attached).
real_t box_work(const Box& b, const WorkModel& m);

/// Total work of a box list.
real_t total_work(const BoxList& boxes, const WorkModel& m);

/// Work of each box, in list order.
std::vector<real_t> per_box_work(const BoxList& boxes, const WorkModel& m);

}  // namespace ssamr
