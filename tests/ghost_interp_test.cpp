// Tests for ghost exchange and inter-grid transfer operators.

#include <gtest/gtest.h>

#include <cmath>

#include "amr/ghost.hpp"
#include "amr/interp.hpp"

namespace ssamr {
namespace {

/// Two adjacent patches along x on a 8x4x4 domain.
GridLevel two_patch_level(int ghost = 1) {
  GridLevel lvl(0, 1, ghost);
  lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0));
  lvl.add_patch(Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0));
  return lvl;
}

const Box kDomain = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 4, 4), 0);

TEST(GhostPlan, PlansCopiesBetweenNeighbours) {
  GridLevel lvl = two_patch_level();
  GhostPlan plan(lvl, kDomain);
  // Each patch receives one face from the other.
  ASSERT_EQ(plan.ops().size(), 2u);
  for (const CopyOp& op : plan.ops()) EXPECT_EQ(op.region.cells(), 16);
}

TEST(GhostPlan, ExchangeMovesData) {
  GridLevel lvl = two_patch_level();
  lvl.patch(0).data().fill(1.0);
  lvl.patch(1).data().fill(2.0);
  GhostPlan plan(lvl, kDomain);
  plan.exchange(lvl);
  // Patch 0's ghost at x=4 now holds patch 1's value and vice versa.
  EXPECT_EQ(lvl.patch(0).data()(0, 4, 1, 1), 2.0);
  EXPECT_EQ(lvl.patch(1).data()(0, 3, 1, 1), 1.0);
}

TEST(GhostPlan, WiderGhostsCopyMoreCells) {
  GridLevel lvl = two_patch_level(/*ghost=*/2);
  GhostPlan plan(lvl, kDomain);
  for (const CopyOp& op : plan.ops()) EXPECT_EQ(op.region.cells(), 32);
}

TEST(GhostPlan, OutflowFillsDomainBoundary) {
  GridLevel lvl = two_patch_level();
  lvl.patch(0).data().fill(3.0);
  lvl.patch(1).data().fill(4.0);
  GhostPlan plan(lvl, kDomain, BoundaryKind::Outflow);
  plan.exchange(lvl);
  plan.fill_physical(lvl);
  // Ghost outside x=0 face extrapolates patch 0's boundary value.
  EXPECT_EQ(lvl.patch(0).data()(0, -1, 1, 1), 3.0);
  // Ghost outside x=7 face of patch 1.
  EXPECT_EQ(lvl.patch(1).data()(0, 8, 1, 1), 4.0);
  // Corner ghost.
  EXPECT_EQ(lvl.patch(0).data()(0, -1, -1, -1), 3.0);
}

TEST(GhostPlan, PeriodicWrapsValues) {
  GridLevel lvl = two_patch_level();
  // Distinct values at the two x-extremes of the domain.
  for (coord_t j = 0; j < 4; ++j)
    for (coord_t k = 0; k < 4; ++k) {
      lvl.patch(0).data()(0, 0, j, k) = 7.0;
      lvl.patch(1).data()(0, 7, j, k) = 9.0;
    }
  GhostPlan plan(lvl, kDomain, BoundaryKind::Periodic);
  plan.exchange(lvl);
  // Patch 0's ghost at x=-1 is the domain's x=7 plane.
  EXPECT_EQ(lvl.patch(0).data()(0, -1, 1, 1), 9.0);
  // Patch 1's ghost at x=8 is the domain's x=0 plane.
  EXPECT_EQ(lvl.patch(1).data()(0, 8, 1, 1), 7.0);
}

TEST(GhostPlan, PeriodicSelfWrapUsesInteriorData) {
  // Regression: a single patch covering the whole domain wraps onto
  // itself; the exchange must read interior cells, not its own stale
  // ghosts (bug found by the reflux conservation tests).
  GridLevel lvl(0, 1, 1);
  Patch& p =
      lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0));
  for (coord_t k = 0; k < 4; ++k)
    for (coord_t j = 0; j < 4; ++j)
      for (coord_t i = 0; i < 4; ++i)
        p.data()(0, i, j, k) = static_cast<real_t>(i);
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0);
  GhostPlan plan(lvl, domain, BoundaryKind::Periodic);
  plan.exchange(lvl);
  EXPECT_EQ(p.data()(0, -1, 1, 1), 3.0);  // wrap of x=3
  EXPECT_EQ(p.data()(0, 4, 1, 1), 0.0);   // wrap of x=0
}

// ---- interpolation -------------------------------------------------------

GridLevel coarse_level_with_linear_field() {
  GridLevel lvl(0, 1, 1);
  Patch& p =
      lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0));
  for (coord_t k = 0; k < 8; ++k)
    for (coord_t j = 0; j < 8; ++j)
      for (coord_t i = 0; i < 8; ++i)
        p.data()(0, i, j, k) = static_cast<real_t>(i) +
                               2.0 * static_cast<real_t>(j) +
                               4.0 * static_cast<real_t>(k);
  return lvl;
}

TEST(Interp, TrilinearReproducesLinearFieldsInTheInterior) {
  GridLevel coarse = coarse_level_with_linear_field();
  GridLevel fine(1, 1, 1);
  Patch& fp =
      fine.add_patch(Box::from_extent(IntVec(4, 4, 4), IntVec(8, 8, 8), 1));
  prolong_level(coarse, fine);
  // Fine cell (i,j,k) centre sits at coarse coordinate ((i+0.5)/2 - 0.5);
  // a linear function must be reproduced exactly away from the clamped
  // boundary slopes.
  for (coord_t k = 5; k < 11; ++k)
    for (coord_t j = 5; j < 11; ++j)
      for (coord_t i = 5; i < 11; ++i) {
        const real_t xc = (static_cast<real_t>(i) + 0.5) / 2.0 - 0.5;
        const real_t yc = (static_cast<real_t>(j) + 0.5) / 2.0 - 0.5;
        const real_t zc = (static_cast<real_t>(k) + 0.5) / 2.0 - 0.5;
        EXPECT_NEAR(fp.data()(0, i, j, k), xc + 2.0 * yc + 4.0 * zc, 1e-12);
      }
}

TEST(Interp, RestrictionAveragesChildren) {
  GridLevel coarse(0, 1, 1);
  Patch& cp =
      coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0));
  GridLevel fine(1, 1, 1);
  Patch& fp =
      fine.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  fp.data().fill(3.0);
  fp.data()(0, 0, 0, 0) = 11.0;  // one child deviates
  restrict_level(fine, coarse);
  EXPECT_NEAR(cp.data()(0, 0, 0, 0), (11.0 + 7 * 3.0) / 8.0, 1e-12);
  EXPECT_NEAR(cp.data()(0, 1, 1, 1), 3.0, 1e-12);
}

TEST(Interp, RestrictionOnlyTouchesShadowedCells) {
  GridLevel coarse(0, 1, 1);
  Patch& cp =
      coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0));
  cp.data().fill(1.0);
  GridLevel fine(1, 1, 1);
  Patch& fp =
      fine.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 1));
  fp.data().fill(9.0);
  restrict_level(fine, coarse);
  EXPECT_EQ(cp.data()(0, 0, 0, 0), 9.0);  // shadowed
  EXPECT_EQ(cp.data()(0, 3, 3, 3), 1.0);  // untouched
}

TEST(Interp, CopyOverlapPreservesOldFineData) {
  GridLevel old_lvl(1, 1, 1);
  Patch& op =
      old_lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 1));
  op.data().fill(5.0);
  GridLevel new_lvl(1, 1, 1);
  Patch& np =
      new_lvl.add_patch(Box::from_extent(IntVec(2, 0, 0), IntVec(4, 4, 4), 1));
  np.data().fill(0.0);
  copy_overlap(old_lvl, new_lvl);
  EXPECT_EQ(np.data()(0, 2, 0, 0), 5.0);
  EXPECT_EQ(np.data()(0, 3, 3, 3), 5.0);
  EXPECT_EQ(np.data()(0, 5, 0, 0), 0.0);  // beyond the old patch
}

TEST(Interp, CoarseFineGhostFillLeavesInteriorIntact) {
  GridLevel coarse = coarse_level_with_linear_field();
  GridLevel fine(1, 1, 1);
  Patch& fp =
      fine.add_patch(Box::from_extent(IntVec(4, 4, 4), IntVec(4, 4, 4), 1));
  fp.data().fill(42.0);
  fill_coarse_fine_ghosts(coarse, fine);
  // Interior untouched.
  EXPECT_EQ(fp.data()(0, 5, 5, 5), 42.0);
  // Ghost cells got coarse data: the parent of (3,4,4) is the interior
  // coarse cell (1,2,2), so trilinear prolongation reproduces the linear
  // field at the fine cell centre (1.25, 1.75, 1.75) in coarse units.
  EXPECT_NEAR(fp.data()(0, 3, 4, 4), 1.25 + 2.0 * 1.75 + 4.0 * 1.75, 1e-12);
}

}  // namespace
}  // namespace ssamr
