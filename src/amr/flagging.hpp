#pragma once
/// \file flagging.hpp
/// Error estimation: tagging cells that need refinement.
///
/// Regridding step (1) of the paper's Berger–Oliger description: "flagging
/// regions needing refinement based on an application specific error
/// criterion".  The library's criterion is a gradient detector, used by
/// both solver kernels.

#include <vector>

#include "amr/level.hpp"
#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Flags cells where the undivided gradient of one component exceeds a
/// threshold: max_d |u(i+e_d) - u(i-e_d)| / 2 > tol.  Differences use only
/// interior neighbours at the patch boundary (one-sided).
class GradientFlagger {
 public:
  /// \param component which field component to inspect
  /// \param tol absolute threshold on the undivided difference
  GradientFlagger(int component, real_t tol);

  /// Append the flagged cells (global coordinates at lvl's level) of every
  /// patch on the level.
  void flag_level(const GridLevel& lvl, std::vector<IntVec>& flags) const;

 private:
  int component_;
  real_t tol_;
};

/// Grow each flag by `buffer` cells (clipped to `clip`), deduplicated.
/// Buffering keeps moving features inside the refined region between
/// regrids.
std::vector<IntVec> buffer_flags(const std::vector<IntVec>& flags,
                                 coord_t buffer, const Box& clip);

}  // namespace ssamr
