// Tests for box algebra (difference, union, coalesce, clipping) and
// BoxList.

#include <gtest/gtest.h>

#include "geom/box_algebra.hpp"
#include "geom/box_list.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

std::int64_t total_cells(const std::vector<Box>& boxes) {
  std::int64_t n = 0;
  for (const Box& b : boxes) n += b.cells();
  return n;
}

bool all_disjoint(const std::vector<Box>& boxes) {
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      if (boxes[i].intersects(boxes[j])) return false;
  return true;
}

TEST(BoxDifference, DisjointReturnsMinuend) {
  const Box a(IntVec(0, 0, 0), IntVec(1, 1, 1));
  const Box b(IntVec(5, 5, 5), IntVec(6, 6, 6));
  const auto d = box_difference(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], a);
}

TEST(BoxDifference, CoveredReturnsEmpty) {
  const Box a(IntVec(1, 1, 1), IntVec(2, 2, 2));
  const Box b(IntVec(0, 0, 0), IntVec(3, 3, 3));
  EXPECT_TRUE(box_difference(a, b).empty());
}

TEST(BoxDifference, CenterHoleProducesSixPieces) {
  const Box a(IntVec(0, 0, 0), IntVec(4, 4, 4));
  const Box hole(IntVec(2, 2, 2), IntVec(2, 2, 2));
  const auto d = box_difference(a, hole);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(total_cells(d), a.cells() - 1);
  EXPECT_TRUE(all_disjoint(d));
}

TEST(BoxDifference, CellCountAlwaysConsistent) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const Box a = Box::from_extent(
        IntVec(rng.uniform_int(0, 5), rng.uniform_int(0, 5),
               rng.uniform_int(0, 5)),
        IntVec(rng.uniform_int(1, 8), rng.uniform_int(1, 8),
               rng.uniform_int(1, 8)));
    const Box b = Box::from_extent(
        IntVec(rng.uniform_int(0, 8), rng.uniform_int(0, 8),
               rng.uniform_int(0, 8)),
        IntVec(rng.uniform_int(1, 8), rng.uniform_int(1, 8),
               rng.uniform_int(1, 8)));
    const auto d = box_difference(a, b);
    EXPECT_EQ(total_cells(d), a.cells() - a.intersection(b).cells());
    EXPECT_TRUE(all_disjoint(d));
    for (const Box& piece : d) {
      EXPECT_TRUE(a.contains(piece));
      EXPECT_FALSE(piece.intersects(b));
    }
  }
}

TEST(BoxDifference, MultipleSubtrahends) {
  const Box a(IntVec(0, 0, 0), IntVec(7, 0, 0));
  const std::vector<Box> subs{Box(IntVec(1, 0, 0), IntVec(2, 0, 0)),
                              Box(IntVec(5, 0, 0), IntVec(6, 0, 0))};
  const auto d = box_difference(a, subs);
  EXPECT_EQ(total_cells(d), 4);
  EXPECT_TRUE(all_disjoint(d));
}

TEST(BoxDifference, EmptyMinuend) {
  EXPECT_TRUE(box_difference(Box(), Box(IntVec(0, 0, 0), IntVec(1, 1, 1)))
                  .empty());
}

TEST(Coalesce, MergesAdjacentPair) {
  const Box a(IntVec(0, 0, 0), IntVec(3, 3, 3));
  const Box b(IntVec(4, 0, 0), IntVec(7, 3, 3));
  const auto m = coalesce({a, b});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], Box(IntVec(0, 0, 0), IntVec(7, 3, 3)));
}

TEST(Coalesce, LeavesNonMergeable) {
  const Box a(IntVec(0, 0, 0), IntVec(3, 3, 3));
  const Box b(IntVec(4, 0, 0), IntVec(7, 2, 3));  // different y extent
  EXPECT_EQ(coalesce({a, b}).size(), 2u);
}

TEST(Coalesce, ChainsMerges) {
  std::vector<Box> boxes;
  for (coord_t i = 0; i < 4; ++i)
    boxes.push_back(
        Box(IntVec(i * 2, 0, 0), IntVec(i * 2 + 1, 1, 1)));
  const auto m = coalesce(boxes);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].cells(), 8 * 2 * 2);
}

/// A guillotine tiling of a random box (every cut splits one tile in two),
/// thinned and shuffled: many face-adjacent pairs, chains of merges, and
/// boxes that only become mergeable after an earlier merge.
std::vector<Box> random_tiling(Rng& rng) {
  const auto level = static_cast<level_t>(rng.uniform_int(0, 1));
  std::vector<Box> pending{Box(
      IntVec(0, 0, 0),
      IntVec(rng.uniform_int(0, 15), rng.uniform_int(0, 15),
             rng.uniform_int(0, 7)),
      level)};
  std::vector<Box> tiles;
  while (!pending.empty() && pending.size() + tiles.size() < 80) {
    const Box b = pending.back();
    pending.pop_back();
    const int axis = static_cast<int>(rng.uniform_int(0, 2));
    const coord_t n = b.extent()[axis];
    if (n < 2 || rng.uniform() < 0.2) {
      tiles.push_back(b);
      continue;
    }
    const auto halves = b.split(axis, rng.uniform_int(1, n - 1));
    pending.push_back(halves.first);
    pending.push_back(halves.second);
  }
  tiles.insert(tiles.end(), pending.begin(), pending.end());
  std::vector<Box> out;
  for (const Box& t : tiles)
    if (rng.uniform() < 0.9) out.push_back(t);
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
  return out;
}

TEST(Coalesce, MatchesRestartingScanOracle) {
  Rng rng(7);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::vector<Box> boxes = random_tiling(rng);
    const std::vector<Box> got = coalesce(boxes);
    const std::vector<Box> want = oracle::coalesce(boxes);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "trial " << trial << " box " << i;
    EXPECT_EQ(total_cells(got), total_cells(boxes));
  }
}

TEST(ClipAndCoalesce, CutsTheBridgeBetweenTwoDisjointParents) {
  // Two parents with a gap at x = 4..7, in patch order.
  const std::vector<Box> parents = {Box(IntVec(0, 0, 0), IntVec(3, 3, 3)),
                                    Box(IntVec(8, 0, 0), IntVec(11, 3, 3))};
  // One cluster box bridges the gap: the bridge goes, one piece per parent.
  const auto clipped =
      clip_and_coalesce({Box(IntVec(2, 1, 1), IntVec(9, 2, 2))}, parents);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0], Box(IntVec(2, 1, 1), IntVec(3, 2, 2)));
  EXPECT_EQ(clipped[1], Box(IntVec(8, 1, 1), IntVec(9, 2, 2)));

  // Pieces of two cluster boxes that touch across a y face coalesce.
  const auto merged =
      clip_and_coalesce({Box(IntVec(2, 0, 0), IntVec(9, 1, 3)),
                         Box(IntVec(2, 2, 0), IntVec(9, 3, 3))},
                        parents);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], Box(IntVec(2, 0, 0), IntVec(3, 3, 3)));
  EXPECT_EQ(merged[1], Box(IntVec(8, 0, 0), IntVec(9, 3, 3)));

  // With nothing to merge the pieces keep the loop order: cluster boxes
  // outer, parents inner.
  const auto ordered =
      clip_and_coalesce({Box(IntVec(2, 0, 0), IntVec(9, 0, 0)),
                         Box(IntVec(2, 3, 0), IntVec(9, 3, 0))},
                        parents);
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0], Box(IntVec(2, 0, 0), IntVec(3, 0, 0)));
  EXPECT_EQ(ordered[1], Box(IntVec(8, 0, 0), IntVec(9, 0, 0)));
  EXPECT_EQ(ordered[2], Box(IntVec(2, 3, 0), IntVec(3, 3, 0)));
  EXPECT_EQ(ordered[3], Box(IntVec(8, 3, 0), IntVec(9, 3, 0)));
}

TEST(BoxList, TotalCellsAndPrune) {
  BoxList l;
  l.push_back(Box(IntVec(0, 0, 0), IntVec(1, 1, 1)));
  l.push_back(Box());  // skipped
  l.push_back(Box(IntVec(4, 4, 4), IntVec(4, 4, 4)));
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.total_cells(), 9);
}

TEST(BoxList, OverlapDetection) {
  BoxList l(std::vector<Box>{Box(IntVec(0, 0, 0), IntVec(3, 3, 3)),
              Box(IntVec(2, 2, 2), IntVec(5, 5, 5))});
  EXPECT_TRUE(l.has_overlap());
  BoxList m(std::vector<Box>{Box(IntVec(0, 0, 0), IntVec(1, 1, 1)),
              Box(IntVec(2, 0, 0), IntVec(3, 1, 1))});
  EXPECT_FALSE(m.has_overlap());
}

TEST(BoxList, DifferentLevelsNeverOverlap) {
  BoxList l(std::vector<Box>{Box(IntVec(0, 0, 0), IntVec(3, 3, 3), 0),
              Box(IntVec(0, 0, 0), IntVec(3, 3, 3), 1)});
  EXPECT_FALSE(l.has_overlap());
}

TEST(BoxList, CoversProbe) {
  BoxList l(std::vector<Box>{Box(IntVec(0, 0, 0), IntVec(3, 1, 1)),
              Box(IntVec(4, 0, 0), IntVec(7, 1, 1))});
  EXPECT_TRUE(l.covers(Box(IntVec(1, 0, 0), IntVec(6, 1, 1))));
  EXPECT_FALSE(l.covers(Box(IntVec(1, 0, 0), IntVec(8, 1, 1))));
  EXPECT_TRUE(l.covers(Box()));
}

TEST(BoxList, AppendConcatenates) {
  BoxList a(std::vector<Box>{Box(IntVec(0, 0, 0), IntVec(1, 1, 1))});
  BoxList b(std::vector<Box>{Box(IntVec(4, 4, 4), IntVec(5, 5, 5))});
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
}

}  // namespace
}  // namespace ssamr
