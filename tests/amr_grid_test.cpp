// Tests for patch data containers: GridFunction, Patch, GridLevel.

#include <gtest/gtest.h>

#include "amr/level.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

TEST(GridFunction, AllocatesStorageWithGhosts) {
  const Box b = Box::from_extent(IntVec(4, 4, 4), IntVec(8, 8, 8));
  GridFunction u(b, /*ncomp=*/2, /*ghost=*/2);
  EXPECT_EQ(u.storage_box().extent(), IntVec(12, 12, 12));
  EXPECT_EQ(u.ncomp(), 2);
  EXPECT_EQ(u.ghost(), 2);
  EXPECT_TRUE(u.allocated());
  EXPECT_EQ(u.raw().size(), 12u * 12 * 12 * 2);
}

TEST(GridFunction, ZeroInitialized) {
  GridFunction u(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)), 1, 1);
  EXPECT_EQ(u(0, 2, 2, 2), 0.0);
  EXPECT_EQ(u(0, -1, -1, -1), 0.0);  // ghost cell
}

TEST(GridFunction, GlobalIndexingReadsBack) {
  GridFunction u(Box::from_extent(IntVec(10, 20, 30), IntVec(4, 4, 4)), 2,
                 1);
  u(0, 11, 21, 31) = 3.5;
  u(1, 13, 23, 33) = -1.25;
  EXPECT_EQ(u(0, 11, 21, 31), 3.5);
  EXPECT_EQ(u(1, 13, 23, 33), -1.25);
  EXPECT_EQ(u(1, 11, 21, 31), 0.0);  // other component untouched
}

TEST(GridFunction, FillAndFillComponent) {
  GridFunction u(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2)), 2, 0);
  u.fill(7.0);
  EXPECT_EQ(u(1, 1, 1, 1), 7.0);
  u.fill_component(0, 1.0);
  EXPECT_EQ(u(0, 0, 0, 0), 1.0);
  EXPECT_EQ(u(1, 0, 0, 0), 7.0);
}

TEST(GridFunction, CopyFromRegion) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4));
  GridFunction src(b, 1, 1), dst(b, 1, 1);
  src.fill(2.0);
  dst.copy_from(src, Box(IntVec(1, 1, 1), IntVec(2, 2, 2)));
  EXPECT_EQ(dst(0, 1, 1, 1), 2.0);
  EXPECT_EQ(dst(0, 2, 2, 2), 2.0);
  EXPECT_EQ(dst(0, 0, 0, 0), 0.0);
  EXPECT_EQ(dst(0, 3, 3, 3), 0.0);
}

TEST(GridFunction, CopyFromBetweenOverlappingPatches) {
  GridFunction a(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)), 1, 1);
  GridFunction bfun(Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4)), 1,
                    1);
  a.fill(5.0);
  // b's ghost layer at x=3 overlaps a's interior; global indexing needs no
  // translation.
  bfun.copy_from(a, Box(IntVec(3, 0, 0), IntVec(3, 3, 3)));
  EXPECT_EQ(bfun(0, 3, 1, 1), 5.0);
}

TEST(GridFunction, CopyRejectsOutOfStorageRegion) {
  GridFunction a(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2)), 1, 0);
  GridFunction b(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2)), 1, 0);
  EXPECT_THROW(b.copy_from(a, Box(IntVec(0, 0, 0), IntVec(5, 5, 5))),
               Error);
}

TEST(GridFunction, RejectsBadConstruction) {
  EXPECT_THROW(GridFunction(Box(), 1, 1), Error);
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2));
  EXPECT_THROW(GridFunction(b, 0, 1), Error);
  EXPECT_THROW(GridFunction(b, 1, -1), Error);
}

TEST(Patch, SwapTimeLevels) {
  Patch p(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2)), 1, 0);
  p.data().fill(1.0);
  p.scratch().fill(2.0);
  p.swap_time_levels();
  EXPECT_EQ(p.data()(0, 0, 0, 0), 2.0);
  EXPECT_EQ(p.scratch()(0, 0, 0, 0), 1.0);
}

TEST(GridLevel, AddPatchValidatesLevel) {
  GridLevel lvl(1, 1, 1);
  EXPECT_THROW(
      lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0)),
      Error);
  lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 1));
  EXPECT_EQ(lvl.num_patches(), 1u);
}

TEST(GridLevel, BoxListAndTotals) {
  GridLevel lvl(0, 1, 1);
  lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0));
  lvl.add_patch(Box::from_extent(IntVec(4, 0, 0), IntVec(4, 2, 2), 0));
  EXPECT_EQ(lvl.box_list().size(), 2u);
  EXPECT_EQ(lvl.total_cells(), 8 + 16);
}

TEST(GridLevel, FindPatchContaining) {
  GridLevel lvl(0, 1, 1);
  lvl.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0));
  lvl.add_patch(Box::from_extent(IntVec(4, 0, 0), IntVec(2, 2, 2), 0));
  EXPECT_EQ(lvl.find_patch_containing(IntVec(1, 1, 1)), 0u);
  EXPECT_EQ(lvl.find_patch_containing(IntVec(5, 0, 0)), 1u);
  EXPECT_EQ(lvl.find_patch_containing(IntVec(3, 0, 0)), GridLevel::npos);
}

}  // namespace
}  // namespace ssamr
