#pragma once
/// \file ghost.hpp
/// Intra-level ghost-cell exchange: planning (who copies what to whom) and
/// execution.
///
/// The plan feeds only the data path: it copies cells so the solver sees
/// its neighbours.  The virtual-time executor does not read it.  It prices
/// ghost traffic from the partition instead: `pairwise_comm_bytes`
/// (partition/metrics.hpp) gives the bytes each rank pair exchanges, and
/// `VirtualExecutor::ghost_flows` (sim/executor.hpp) caches them per
/// partition.

#include <vector>

#include "amr/level.hpp"
#include "geom/box.hpp"
#include "util/types.hpp"

namespace ssamr {

/// One ghost copy: cells of `region` flow from patch `src` to patch `dst`
/// (indices into the level's patch array).
struct CopyOp {
  std::size_t src = 0;
  std::size_t dst = 0;
  Box region;
};

/// Physical boundary treatment for ghost cells outside the domain.
enum class BoundaryKind {
  Outflow,   ///< zero-gradient extrapolation
  Periodic,  ///< wrap-around
};

/// The ghost-exchange plan for one level.
class GhostPlan {
 public:
  /// Build the plan: for every patch, every ghost cell covered by a sibling
  /// patch becomes a CopyOp.
  /// \param domain the domain box at this level (for periodic wrap checks)
  GhostPlan(const GridLevel& lvl, const Box& domain,
            BoundaryKind bc = BoundaryKind::Outflow);

  const std::vector<CopyOp>& ops() const { return ops_; }

  /// Execute all copies on the level's current data.
  void exchange(GridLevel& lvl) const;

  /// Fill ghost cells outside the domain according to the boundary kind.
  /// (Periodic ghosts are filled by wrapped CopyOps already; this handles
  /// outflow extrapolation.)
  void fill_physical(GridLevel& lvl) const;

 private:
  Box domain_;
  BoundaryKind bc_;
  std::vector<CopyOp> ops_;
  int ncomp_ = 1;
};

}  // namespace ssamr
