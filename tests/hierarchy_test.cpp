// Tests for the adaptive grid hierarchy (levels, nesting, regrid plumbing).

#include <gtest/gtest.h>

#include "amr/hierarchy.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

HierarchyConfig small_config() {
  HierarchyConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0);
  cfg.max_levels = 4;
  cfg.ncomp = 1;
  cfg.ghost = 1;
  return cfg;
}

TEST(Hierarchy, StartsWithBaseLevelCoveringDomain) {
  GridHierarchy h(small_config());
  EXPECT_EQ(h.num_levels(), 1);
  EXPECT_EQ(h.level(0).num_patches(), 1u);
  EXPECT_EQ(h.level(0).patch(0).box(), small_config().domain);
}

TEST(Hierarchy, RejectsBadConfigs) {
  HierarchyConfig cfg = small_config();
  cfg.domain = Box();
  EXPECT_THROW(GridHierarchy{cfg}, Error);
  cfg = small_config();
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 1);
  EXPECT_THROW(GridHierarchy{cfg}, Error);
}

TEST(Hierarchy, DomainAtScalesWithLevel) {
  GridHierarchy h(small_config());
  EXPECT_EQ(h.domain_at(0).extent(), IntVec(16, 16, 16));
  EXPECT_EQ(h.domain_at(1).extent(), IntVec(32, 32, 32));
  EXPECT_EQ(h.domain_at(3).extent(), IntVec(128, 128, 128));
}

TEST(Hierarchy, SetLevelBoxesCreatesLevel) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(4, 4, 4), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1);
  EXPECT_EQ(h.num_levels(), 2);
  EXPECT_EQ(h.level(1).num_patches(), 1u);
}

TEST(Hierarchy, RejectsBoxesOutsideDomain) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(28, 28, 28), IntVec(8, 8, 8), 1));
  EXPECT_THROW(h.set_level_boxes(1, l1), Error);
}

TEST(Hierarchy, RejectsWrongLevelBoxes) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 2));
  EXPECT_THROW(h.set_level_boxes(1, l1), Error);
}

TEST(Hierarchy, RejectsOverlappingBoxes) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  l1.push_back(Box::from_extent(IntVec(4, 4, 4), IntVec(8, 8, 8), 1));
  EXPECT_THROW(h.set_level_boxes(1, l1), Error);
}

TEST(Hierarchy, RejectsSkippingLevels) {
  GridHierarchy h(small_config());
  BoxList l2;
  l2.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 2));
  EXPECT_THROW(h.set_level_boxes(2, l2), Error);
}

TEST(Hierarchy, EnforcesProperNesting) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1);
  // Level 2 box inside the level-1 region: fine.
  BoxList good;
  good.push_back(Box::from_extent(IntVec(16, 16, 16), IntVec(8, 8, 8), 2));
  EXPECT_TRUE(h.properly_nested(2, good));
  h.set_level_boxes(2, good);
  EXPECT_EQ(h.num_levels(), 3);
  // Level 2 box poking outside level 1: rejected.
  BoxList bad;
  bad.push_back(Box::from_extent(IntVec(8, 16, 16), IntVec(8, 8, 8), 2));
  EXPECT_FALSE(h.properly_nested(2, bad));
  EXPECT_THROW(h.set_level_boxes(2, bad), Error);
}

TEST(Hierarchy, EmptyLevelTruncatesDeeperLevels) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1);
  BoxList l2;
  l2.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 2));
  h.set_level_boxes(2, l2);
  EXPECT_EQ(h.num_levels(), 3);
  h.set_level_boxes(1, BoxList());
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(Hierarchy, ShrinkingParentDropsOrphanedChildren) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  h.set_level_boxes(1, l1);
  BoxList l2;
  l2.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 2));
  l2.push_back(Box::from_extent(IntVec(24, 24, 24), IntVec(8, 8, 8), 2));
  h.set_level_boxes(2, l2);
  EXPECT_EQ(h.level(2).num_patches(), 2u);
  // Shrink level 1 so only the first level-2 box stays nested.
  BoxList l1b;
  l1b.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1b);
  ASSERT_EQ(h.num_levels(), 3);
  EXPECT_EQ(h.level(2).num_patches(), 1u);
}

TEST(Hierarchy, CompositeBoxListSpansLevels) {
  GridHierarchy h(small_config());
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1);
  const BoxList composite = h.composite_box_list();
  EXPECT_EQ(composite.size(), 2u);
  EXPECT_EQ(h.total_cells(), 16 * 16 * 16 + 8 * 8 * 8);
}

TEST(Hierarchy, MaxLevelsEnforced) {
  HierarchyConfig cfg = small_config();
  cfg.max_levels = 2;
  GridHierarchy h(cfg);
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1));
  h.set_level_boxes(1, l1);
  BoxList l2;
  l2.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 2));
  EXPECT_THROW(h.set_level_boxes(2, l2), Error);
}

}  // namespace
}  // namespace ssamr
