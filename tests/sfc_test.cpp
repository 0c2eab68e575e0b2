// Tests for the space-filling-curve module: Morton, Hilbert, composite
// ordering.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "sfc/hilbert.hpp"
#include "sfc/morton.hpp"
#include "sfc/sfc_index.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

TEST(Morton, KnownValues) {
  EXPECT_EQ(morton_encode(0, 0, 0), 0u);
  EXPECT_EQ(morton_encode(1, 0, 0), 1u);
  EXPECT_EQ(morton_encode(0, 1, 0), 2u);
  EXPECT_EQ(morton_encode(0, 0, 1), 4u);
  EXPECT_EQ(morton_encode(1, 1, 1), 7u);
}

TEST(Morton, RoundtripRandom) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const IntVec p(rng.uniform_int(0, (1 << 21) - 1),
                   rng.uniform_int(0, (1 << 21) - 1),
                   rng.uniform_int(0, (1 << 21) - 1));
    EXPECT_EQ(morton_decode(morton_encode(p)), p);
  }
}

TEST(Morton, RejectsOutOfRange) {
  EXPECT_THROW(morton_encode(-1, 0, 0), Error);
  EXPECT_THROW(morton_encode(coord_t{1} << 21, 0, 0), Error);
}

TEST(Morton, OrderIsMonotoneInEachAxisBlock) {
  // Within one octant level, increasing a coordinate increases the key.
  EXPECT_LT(morton_encode(0, 0, 0), morton_encode(1, 0, 0));
  EXPECT_LT(morton_encode(1, 1, 1), morton_encode(2, 0, 0));
}

TEST(Hilbert, RoundtripExhaustiveSmall) {
  const int bits = 3;
  for (coord_t x = 0; x < 8; ++x)
    for (coord_t y = 0; y < 8; ++y)
      for (coord_t z = 0; z < 8; ++z) {
        const IntVec p(x, y, z);
        EXPECT_EQ(hilbert_decode(hilbert_encode(p, bits), bits), p);
      }
}

TEST(Hilbert, RoundtripRandomLargeBits) {
  Rng rng(17);
  const int bits = 16;
  for (int i = 0; i < 500; ++i) {
    const IntVec p(rng.uniform_int(0, (1 << bits) - 1),
                   rng.uniform_int(0, (1 << bits) - 1),
                   rng.uniform_int(0, (1 << bits) - 1));
    EXPECT_EQ(hilbert_decode(hilbert_encode(p, bits), bits), p);
  }
}

TEST(Hilbert, IsABijectionOnSmallCube) {
  const int bits = 2;
  std::set<key_t> keys;
  for (coord_t x = 0; x < 4; ++x)
    for (coord_t y = 0; y < 4; ++y)
      for (coord_t z = 0; z < 4; ++z)
        keys.insert(hilbert_encode(IntVec(x, y, z), bits));
  EXPECT_EQ(keys.size(), 64u);
  EXPECT_EQ(*keys.begin(), 0u);
  EXPECT_EQ(*keys.rbegin(), 63u);
}

TEST(Hilbert, ConsecutiveKeysAreFaceNeighbors) {
  // The defining property of the Hilbert curve.
  const int bits = 3;
  IntVec prev = hilbert_decode(0, bits);
  for (key_t k = 1; k < 512; ++k) {
    const IntVec cur = hilbert_decode(k, bits);
    const coord_t dist = std::abs(cur.x - prev.x) +
                         std::abs(cur.y - prev.y) +
                         std::abs(cur.z - prev.z);
    EXPECT_EQ(dist, 1) << "keys " << k - 1 << " -> " << k;
    prev = cur;
  }
}

TEST(Hilbert, RejectsBadArguments) {
  EXPECT_THROW(hilbert_encode(IntVec(0, 0, 0), 0), Error);
  EXPECT_THROW(hilbert_encode(IntVec(0, 0, 0), 22), Error);
  EXPECT_THROW(hilbert_encode(IntVec(-1, 0, 0), 4), Error);
  EXPECT_THROW(hilbert_encode(IntVec(16, 0, 0), 4), Error);
}

class SfcOrderTest : public ::testing::TestWithParam<CurveKind> {};

TEST_P(SfcOrderTest, OrderIsAPermutation) {
  SfcConfig cfg;
  cfg.curve = GetParam();
  cfg.finest_level = 2;
  std::vector<Box> boxes;
  for (coord_t i = 0; i < 4; ++i)
    for (coord_t j = 0; j < 4; ++j)
      boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                       IntVec(8, 8, 8), 0));
  const auto perm = sfc_order(boxes, cfg);
  ASSERT_EQ(perm.size(), boxes.size());
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), boxes.size());
}

TEST_P(SfcOrderTest, SpatiallyAdjacentBoxesLandNearby) {
  SfcConfig cfg;
  cfg.curve = GetParam();
  cfg.finest_level = 0;
  cfg.bits = 8;
  // A row of adjacent boxes must be ordered monotonically along the row.
  std::vector<Box> boxes;
  for (coord_t i = 0; i < 8; ++i)
    boxes.push_back(
        Box::from_extent(IntVec(i * 4, 0, 0), IntVec(4, 4, 4), 0));
  const auto perm = sfc_order(boxes, cfg);
  // The first and last box of the row must be at the ends of the order.
  EXPECT_TRUE(perm.front() == 0 || perm.front() == 7);
  EXPECT_TRUE(perm.back() == 0 || perm.back() == 7);
}

INSTANTIATE_TEST_SUITE_P(BothCurves, SfcOrderTest,
                         ::testing::Values(CurveKind::Morton,
                                           CurveKind::Hilbert));

TEST(SfcIndex, CrossLevelKeysInterleaveSpatially) {
  SfcConfig cfg;
  cfg.finest_level = 1;
  // A fine box sitting inside a coarse box keys near that coarse box.
  const Box coarse_left = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  const Box coarse_right =
      Box::from_extent(IntVec(24, 0, 0), IntVec(8, 8, 8), 0);
  const Box fine_left = Box::from_extent(IntVec(2, 2, 2), IntVec(8, 8, 8), 1);
  const key_t kl = sfc_box_key(coarse_left, cfg);
  const key_t kr = sfc_box_key(coarse_right, cfg);
  const key_t kf = sfc_box_key(fine_left, cfg);
  // fine_left's centroid is close to coarse_left's, far from coarse_right's.
  EXPECT_LT(std::llabs(static_cast<long long>(kf) -
                       static_cast<long long>(kl)),
            std::llabs(static_cast<long long>(kf) -
                       static_cast<long long>(kr)));
}

TEST(SfcIndex, RejectsEmptyAndTooDeepBoxes) {
  SfcConfig cfg;
  cfg.finest_level = 1;
  EXPECT_THROW(sfc_box_key(Box(), cfg), Error);
  EXPECT_THROW(
      sfc_box_key(Box(IntVec(0, 0, 0), IntVec(1, 1, 1), 2), cfg), Error);
}

TEST(SfcIndex, DeterministicOrder) {
  SfcConfig cfg;
  std::vector<Box> boxes{
      Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0),
      Box::from_extent(IntVec(8, 8, 8), IntVec(4, 4, 4), 0),
      Box::from_extent(IntVec(16, 0, 0), IntVec(4, 4, 4), 0)};
  EXPECT_EQ(sfc_order(boxes, cfg), sfc_order(boxes, cfg));
}

}  // namespace
}  // namespace ssamr
