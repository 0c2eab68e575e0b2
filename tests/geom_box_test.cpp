// Unit and property tests for geom: IntVec and Box.

#include <gtest/gtest.h>

#include <sstream>

#include "geom/box.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

TEST(IntVec, Arithmetic) {
  const IntVec a(1, 2, 3), b(4, 5, 6);
  EXPECT_EQ(a + b, IntVec(5, 7, 9));
  EXPECT_EQ(b - a, IntVec(3, 3, 3));
  EXPECT_EQ(a * 2, IntVec(2, 4, 6));
  EXPECT_EQ(2 * a, IntVec(2, 4, 6));
}

TEST(IntVec, MinMaxProduct) {
  const IntVec a(1, 9, 3), b(4, 2, 6);
  EXPECT_EQ(min(a, b), IntVec(1, 2, 3));
  EXPECT_EQ(max(a, b), IntVec(4, 9, 6));
  EXPECT_EQ(a.product(), 27);
}

TEST(IntVec, Comparisons) {
  EXPECT_TRUE(IntVec(1, 1, 1).all_le(IntVec(1, 2, 3)));
  EXPECT_FALSE(IntVec(2, 1, 1).all_le(IntVec(1, 2, 3)));
  EXPECT_TRUE(IntVec(3, 3, 3).all_ge(IntVec(1, 2, 3)));
}

TEST(Box, DefaultIsEmpty) {
  const Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.cells(), 0);
  EXPECT_EQ(b.extent(), IntVec(0, 0, 0));
}

TEST(Box, ExtentAndCells) {
  const Box b(IntVec(0, 0, 0), IntVec(3, 1, 0));
  EXPECT_EQ(b.extent(), IntVec(4, 2, 1));
  EXPECT_EQ(b.cells(), 8);
}

TEST(Box, FromExtent) {
  const Box b = Box::from_extent(IntVec(2, 2, 2), IntVec(3, 3, 3));
  EXPECT_EQ(b.lo(), IntVec(2, 2, 2));
  EXPECT_EQ(b.hi(), IntVec(4, 4, 4));
}

TEST(Box, ContainsPoint) {
  const Box b(IntVec(0, 0, 0), IntVec(2, 2, 2));
  EXPECT_TRUE(b.contains(IntVec(0, 0, 0)));
  EXPECT_TRUE(b.contains(IntVec(2, 2, 2)));
  EXPECT_FALSE(b.contains(IntVec(3, 0, 0)));
  EXPECT_FALSE(b.contains(IntVec(-1, 0, 0)));
}

TEST(Box, ContainsBox) {
  const Box outer(IntVec(0, 0, 0), IntVec(7, 7, 7));
  EXPECT_TRUE(outer.contains(Box(IntVec(1, 1, 1), IntVec(6, 6, 6))));
  EXPECT_FALSE(outer.contains(Box(IntVec(1, 1, 1), IntVec(8, 6, 6))));
  EXPECT_TRUE(outer.contains(Box()));  // empty box is everywhere
}

TEST(Box, Intersection) {
  const Box a(IntVec(0, 0, 0), IntVec(4, 4, 4));
  const Box b(IntVec(2, 2, 2), IntVec(6, 6, 6));
  const Box i = a.intersection(b);
  EXPECT_EQ(i.lo(), IntVec(2, 2, 2));
  EXPECT_EQ(i.hi(), IntVec(4, 4, 4));
  EXPECT_TRUE(a.intersects(b));
}

TEST(Box, DisjointIntersectionIsEmpty) {
  const Box a(IntVec(0, 0, 0), IntVec(1, 1, 1));
  const Box b(IntVec(5, 5, 5), IntVec(6, 6, 6));
  EXPECT_TRUE(a.intersection(b).empty());
  EXPECT_FALSE(a.intersects(b));
}

TEST(Box, IntersectionLevelMismatchThrows) {
  const Box a(IntVec(0, 0, 0), IntVec(1, 1, 1), 0);
  const Box b(IntVec(0, 0, 0), IntVec(1, 1, 1), 1);
  EXPECT_THROW(a.intersection(b), Error);
}

TEST(Box, GrownAndShifted) {
  const Box b(IntVec(2, 2, 2), IntVec(4, 4, 4));
  EXPECT_EQ(b.grown(1).lo(), IntVec(1, 1, 1));
  EXPECT_EQ(b.grown(1).hi(), IntVec(5, 5, 5));
  EXPECT_EQ(b.grown(-1).cells(), 1);
  EXPECT_EQ(b.shifted(IntVec(1, 0, -2)).lo(), IntVec(3, 2, 0));
}

TEST(Box, RefineDoublesEachDirection) {
  const Box b(IntVec(1, 1, 1), IntVec(2, 2, 2), 0);
  const Box f = b.refined();
  EXPECT_EQ(f.level(), 1);
  EXPECT_EQ(f.lo(), IntVec(2, 2, 2));
  EXPECT_EQ(f.hi(), IntVec(5, 5, 5));
  EXPECT_EQ(f.cells(), b.cells() * 8);
}

TEST(Box, RefineMultipleLevels) {
  const Box b(IntVec(0, 0, 0), IntVec(1, 1, 1), 0);
  const Box f = b.refined_by(2);
  EXPECT_EQ(f.level(), 2);
  EXPECT_EQ(f.cells(), b.cells() * 64);
}

TEST(Box, CoarsenCoversFineBox) {
  const Box f(IntVec(3, 5, 7), IntVec(8, 9, 11), 1);
  const Box c = f.coarsened();
  EXPECT_EQ(c.level(), 0);
  EXPECT_TRUE(c.refined().contains(f));
}

TEST(Box, CoarsenNegativeCoordsFloor) {
  const Box f(IntVec(-3, -3, -3), IntVec(-1, -1, -1), 1);
  const Box c = f.coarsened();
  EXPECT_EQ(c.lo(), IntVec(-2, -2, -2));
  EXPECT_EQ(c.hi(), IntVec(-1, -1, -1));
}

TEST(Box, RefineCoarsenRoundtrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const IntVec lo(rng.uniform_int(0, 20), rng.uniform_int(0, 20),
                    rng.uniform_int(0, 20));
    const IntVec ext(rng.uniform_int(1, 10), rng.uniform_int(1, 10),
                     rng.uniform_int(1, 10));
    const Box b = Box::from_extent(lo, ext, 0);
    EXPECT_EQ(b.refined().coarsened(), b);
  }
}

TEST(Box, RefinedByComposesOneLevelSteps) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const IntVec lo(rng.uniform_int(-20, 20), rng.uniform_int(-20, 20),
                    rng.uniform_int(-20, 20));
    const IntVec ext(rng.uniform_int(1, 6), rng.uniform_int(1, 6),
                     rng.uniform_int(1, 6));
    const Box b = Box::from_extent(lo, ext, 1);
    Box stepped = b;
    for (int levels = 1; levels <= 4; ++levels) {
      stepped = stepped.refined();
      EXPECT_EQ(b.refined_by(levels), stepped) << b << " by " << levels;
      EXPECT_EQ(stepped.level(), 1 + levels);
    }
  }
}

TEST(Box, RefinedByRejectsNonPositiveLevels) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0);
  EXPECT_THROW(b.refined_by(0), Error);
  EXPECT_THROW(b.refined_by(-1), Error);
}

TEST(Box, CoarsenRejectsLevelZero) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0);
  EXPECT_THROW(b.coarsened(), Error);
}

TEST(Box, CoarsenIsTheTightestCover) {
  // The coarse box's refinement covers the fine box and overhangs it by
  // less than one coarse cell on every face, signs of the bounds alike.
  Rng rng(31);
  const IntVec slack = IntVec::splat(kRefinementRatio - 1);
  for (int trial = 0; trial < 60; ++trial) {
    const IntVec lo(rng.uniform_int(-25, 25), rng.uniform_int(-25, 25),
                    rng.uniform_int(-25, 25));
    const IntVec ext(rng.uniform_int(1, 9), rng.uniform_int(1, 9),
                     rng.uniform_int(1, 9));
    const Box f = Box::from_extent(lo, ext, 2);
    const Box cover = f.coarsened().refined();
    ASSERT_TRUE(cover.contains(f)) << f;
    EXPECT_TRUE((f.lo() - cover.lo()).all_le(slack)) << f;
    EXPECT_TRUE((cover.hi() - f.hi()).all_le(slack)) << f;
  }
}

TEST(Box, RefinementScaleIsThePowerOfTheRatio) {
  EXPECT_EQ(refinement_scale(0), 1);
  EXPECT_EQ(refinement_scale(-3), 1);
  coord_t power = 1;
  for (int levels = 1; levels <= 30; ++levels) {
    power *= kRefinementRatio;
    EXPECT_EQ(refinement_scale(levels), power) << levels;
    // Exact in real_t as well: one division by the ratio undoes a level.
    EXPECT_EQ(static_cast<real_t>(refinement_scale(levels)) /
                  static_cast<real_t>(kRefinementRatio),
              static_cast<real_t>(refinement_scale(levels - 1)))
        << levels;
  }
}

TEST(Box, CoarseCellContainsTheFineCell) {
  // Every fine cell, negative coordinates included, lies in the
  // refinement of its coarse cell.
  for (coord_t i = -9; i <= 9; ++i) {
    const IntVec fine(i, -i, i + 3);
    const IntVec coarse = coarse_cell(fine);
    EXPECT_TRUE(Box(coarse, coarse, 0).refined().contains(fine)) << fine;
  }
}

TEST(Box, EmptyBoxStaysEmptyAcrossLevels) {
  const Box e(IntVec(4, 4, 4), IntVec(3, 3, 3), 1);
  ASSERT_TRUE(e.empty());
  EXPECT_TRUE(e.refined().empty());
  EXPECT_EQ(e.refined().level(), 2);
  EXPECT_TRUE(e.refined_by(3).empty());
  EXPECT_EQ(e.refined_by(3).level(), 4);
  EXPECT_TRUE(e.coarsened().empty());
  EXPECT_EQ(e.coarsened().level(), 0);
}

TEST(Box, LongestShortestAxis) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 2, 4));
  EXPECT_EQ(b.longest_axis(), 0);
  EXPECT_EQ(b.shortest_axis(), 1);
  EXPECT_DOUBLE_EQ(b.aspect_ratio(), 4.0);
}

TEST(Box, AspectRatioOfCubeIsOne) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4));
  EXPECT_DOUBLE_EQ(b.aspect_ratio(), 1.0);
}

struct SplitCase {
  int axis;
  coord_t offset;
};

// Names the instances by value; gtest's default byte dump would print the
// struct's uninitialized padding.
void PrintTo(const SplitCase& c, std::ostream* os) {
  *os << "axis" << c.axis << "_offset" << c.offset;
}

class BoxSplitTest : public ::testing::TestWithParam<SplitCase> {};

TEST_P(BoxSplitTest, PiecesPartitionTheBox) {
  const Box b = Box::from_extent(IntVec(2, 3, 4), IntVec(8, 6, 10), 1);
  const auto [axis, offset] = GetParam();
  const auto [left, right] = b.split(axis, offset);
  EXPECT_EQ(left.cells() + right.cells(), b.cells());
  EXPECT_FALSE(left.intersects(right));
  EXPECT_TRUE(b.contains(left));
  EXPECT_TRUE(b.contains(right));
  EXPECT_EQ(left.extent()[axis], offset);
  EXPECT_EQ(left.level(), b.level());
  EXPECT_EQ(right.level(), b.level());
}

INSTANTIATE_TEST_SUITE_P(AxesAndOffsets, BoxSplitTest,
                         ::testing::Values(SplitCase{0, 1}, SplitCase{0, 4},
                                           SplitCase{0, 7}, SplitCase{1, 3},
                                           SplitCase{2, 5}, SplitCase{2, 9}));

TEST(Box, SplitRejectsDegenerateOffsets) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4));
  EXPECT_THROW(b.split(0, 0), Error);
  EXPECT_THROW(b.split(0, 4), Error);
  EXPECT_THROW(b.split(3, 1), Error);
}

TEST(Box, EqualityTreatsAllEmptyAsEqual) {
  EXPECT_EQ(Box(), Box(IntVec(5, 5, 5), IntVec(0, 0, 0)));
  EXPECT_NE(Box(IntVec(0, 0, 0), IntVec(1, 1, 1)), Box());
}

TEST(Box, BoundingUnion) {
  const Box a(IntVec(0, 0, 0), IntVec(1, 1, 1));
  const Box b(IntVec(4, 4, 4), IntVec(5, 5, 5));
  const Box u = bounding_union(a, b);
  EXPECT_EQ(u.lo(), IntVec(0, 0, 0));
  EXPECT_EQ(u.hi(), IntVec(5, 5, 5));
  EXPECT_EQ(bounding_union(Box(), a), a);
  EXPECT_EQ(bounding_union(a, Box()), a);
}

TEST(Box, StreamOutput) {
  std::ostringstream os;
  os << Box(IntVec(0, 0, 0), IntVec(1, 2, 3), 2);
  EXPECT_NE(os.str().find("L2"), std::string::npos);
}

}  // namespace
}  // namespace ssamr
