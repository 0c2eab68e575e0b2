// Tests for the partitioners: splitting machinery, the GrACE default
// baseline, ACEHeterogeneous, and the multi-axis extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <ostream>

#include "util/error.hpp"
#include "geom/box_algebra.hpp"
#include "partition/distributed_sfc.hpp"
#include "partition/grace_default.hpp"
#include "partition/heterogeneous.hpp"
#include "partition/knapsack.hpp"
#include "partition/metrics.hpp"
#include "partition/greedy.hpp"
#include "partition/multiaxis.hpp"
#include "partition/partition_audit.hpp"
#include "partition/sfc_knapsack.hpp"
#include "sfc/sfc_index.hpp"

namespace ssamr {
namespace {

const WorkModel kWork{};

/// The AssignmentWalk fed `boxes` in list order, each priced under kWork.
PartitionResult assign_in_order(const std::vector<Box>& boxes,
                                const std::vector<real_t>& targets,
                                const std::vector<rank_t>& proc_order,
                                const PartitionConstraints& c) {
  AssignmentWalk walk(targets, proc_order, kWork, c);
  for (const Box& b : boxes) walk.feed(b, box_work(b, kWork));
  return walk.take();
}

BoxList uniform_grid_boxes(coord_t n_per_axis, coord_t box_size,
                           level_t level = 0) {
  BoxList out;
  for (coord_t i = 0; i < n_per_axis; ++i)
    for (coord_t j = 0; j < n_per_axis; ++j)
      out.push_back(Box::from_extent(
          IntVec(i * box_size, j * box_size, 0),
          IntVec(box_size, box_size, box_size), level));
  return out;
}

TEST(SplitForWork, FirstPieceApproachesTargetFromBelow) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 4, 4));
  PartitionConstraints c;
  c.min_box_size = 2;
  const auto pieces = split_for_work(b, box_work(b, kWork), 100.0, kWork, c);
  ASSERT_TRUE(pieces.has_value());
  // plane work = 16 cells; 100/16 = 6.25 -> 6 planes = 96 work.
  EXPECT_DOUBLE_EQ(box_work(pieces->first, kWork), 96.0);
  EXPECT_DOUBLE_EQ(box_work(pieces->second, kWork),
                   box_work(b, kWork) - 96.0);
}

TEST(SplitForWork, CutsAlongLongestAxis) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 32, 4));
  PartitionConstraints c;
  c.min_box_size = 2;
  const auto pieces = split_for_work(b, box_work(b, kWork), 128.0, kWork, c);
  ASSERT_TRUE(pieces.has_value());
  EXPECT_EQ(pieces->first.extent().x, 4);
  EXPECT_EQ(pieces->first.extent().z, 4);
  EXPECT_LT(pieces->first.extent().y, 32);
}

TEST(SplitForWork, MinSizeClampsBothSides) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 2, 2));
  PartitionConstraints c;
  c.min_box_size = 4;
  // Tiny target: the cut still leaves >= 4 planes on each side.
  const auto lo = split_for_work(b, box_work(b, kWork), 1.0, kWork, c);
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(lo->first.extent().x, 4);
  // Huge target: clamped from the other end.
  const auto hi = split_for_work(b, box_work(b, kWork), 1.0e9, kWork, c);
  ASSERT_TRUE(hi.has_value());
  EXPECT_EQ(hi->second.extent().x, 4);
}

TEST(SplitForWork, HugeTargetOverTinyPlaneWorkClampsWithoutOverflow) {
  // Regression: target_work / plane_work can reach any value beyond
  // coord_t's range — here 1e300 over a per-plane work of 4 x 4 = 16 —
  // and casting such a double to an integer is undefined behaviour
  // (UBSan: float-cast-overflow).  The quotient must be clamped in
  // floating point before the cast — post-fix this returns the largest
  // admissible cut.
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 4, 4));
  PartitionConstraints c;
  c.min_box_size = 2;
  const auto pieces = split_for_work(b, box_work(b, kWork), 1.0e300, kWork, c);
  ASSERT_TRUE(pieces.has_value());
  EXPECT_EQ(pieces->first.extent().x, 62);
  EXPECT_EQ(pieces->second.extent().x, 2);
  // Same overflow through the multi-axis scorer.
  c.longest_axis_only = false;
  const auto multi = split_for_work(b, box_work(b, kWork), 1.0e300, kWork, c);
  ASSERT_TRUE(multi.has_value());
}

TEST(SplitForWork, RefusesWhenBoxTooSmall) {
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(6, 6, 6));
  PartitionConstraints c;
  c.min_box_size = 4;  // 6 < 2*4 in every direction
  EXPECT_FALSE(
      split_for_work(b, box_work(b, kWork), 50.0, kWork, c).has_value());
}

TEST(SplitForWork, MultiAxisPicksBestFit) {
  // 8x8x8 box, target = exactly 3 x-planes of work.  Longest-axis-only is
  // forced to the x axis anyway here, so craft an anisotropic case:
  // extents (4, 16, 8); target fits 5 y-planes (5*32=160) better than any
  // admissible z cut (z planes are 64 each: 2 planes = 128 or 3 = 192).
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 16, 8));
  PartitionConstraints c;
  c.min_box_size = 2;
  c.longest_axis_only = false;
  const auto pieces = split_for_work(b, box_work(b, kWork), 160.0, kWork, c);
  ASSERT_TRUE(pieces.has_value());
  EXPECT_DOUBLE_EQ(box_work(pieces->first, kWork), 160.0);
}

TEST(AssignSequence, LastProcessorAbsorbsRemainder) {
  std::vector<Box> boxes{
      Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)),
      Box::from_extent(IntVec(8, 0, 0), IntVec(4, 4, 4)),
      Box::from_extent(IntVec(16, 0, 0), IntVec(4, 4, 4))};
  const PartitionConstraints c;
  const auto r = assign_in_order(boxes, {0.0, 0.0}, {0, 1}, c);
  EXPECT_DOUBLE_EQ(r.assigned_work[1], 3 * 64.0);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 0.0);
}

struct UnsplittableCase {
  const char* label;
  std::vector<real_t> targets;
  std::vector<real_t> expected_work;
};

TEST(AssignSequence, UnsplittableBoxPolicyTable) {
  // Three 4³ boxes (64 work each) that min_box_size = 4 makes unsplittable:
  // the walk must decide take-vs-defer by the half-fits rule and let the
  // last processor absorb whatever is left.
  const std::vector<Box> boxes{
      Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)),
      Box::from_extent(IntVec(8, 0, 0), IntVec(4, 4, 4)),
      Box::from_extent(IntVec(16, 0, 0), IntVec(4, 4, 4))};
  PartitionConstraints c;
  c.min_box_size = 4;

  const std::vector<UnsplittableCase> cases{
      // remaining 40 ≥ 64/2: the first rank takes the oversized box.
      {"takes_when_at_least_half_fits", {40.0, 152.0}, {64.0, 128.0}},
      // remaining exactly half: the boundary counts as a take.
      {"takes_at_exactly_half", {32.0, 160.0}, {64.0, 128.0}},
      // remaining 24 < 32: the box is deferred to the next rank.
      {"defers_when_less_than_half_fits", {24.0, 168.0}, {0.0, 192.0}},
      // every target undersized: the last rank still absorbs everything.
      {"last_rank_absorbs_regardless_of_target", {16.0, 16.0}, {0.0, 192.0}},
      // a zero target is skipped without consuming a box.
      {"zero_target_skipped", {0.0, 192.0}, {0.0, 192.0}},
      // middle rank defers, the pieces land on its neighbours.
      {"mid_rank_defers_to_last", {40.0, 24.0, 128.0}, {64.0, 0.0, 128.0}},
  };

  for (const UnsplittableCase& tc : cases) {
    SCOPED_TRACE(tc.label);
    std::vector<rank_t> order(tc.targets.size());
    std::iota(order.begin(), order.end(), 0);
    const PartitionResult r = assign_in_order(boxes, tc.targets, order, c);
    EXPECT_EQ(r.splits, 0);
    EXPECT_EQ(r.assignments.size(), boxes.size());
    ASSERT_EQ(r.assigned_work.size(), tc.expected_work.size());
    for (std::size_t k = 0; k < tc.expected_work.size(); ++k)
      EXPECT_DOUBLE_EQ(r.assigned_work[k], tc.expected_work[k]);
  }
}

TEST(AssignSequence, ValidatesArity) {
  EXPECT_THROW(assign_in_order({}, {}, {}, {}), Error);
  EXPECT_THROW(assign_in_order({}, {1.0}, {0, 1}, {}), Error);
}

TEST(CapacityTargets, AreCapacitySharesOfTheTotal) {
  const std::vector<real_t> caps{1.0, 3.0};
  const real_t sum = capacity_sum(caps);
  EXPECT_DOUBLE_EQ(sum, 4.0);
  EXPECT_EQ(capacity_targets(100.0, caps, sum),
            (std::vector<real_t>{25.0, 75.0}));
  EXPECT_THROW(capacity_sum({}), Error);
  EXPECT_THROW(capacity_sum({-1.0, 2.0}), Error);
  EXPECT_THROW(capacity_sum({0.0, 0.0}), Error);
}

TEST(PeakRelativeLoad, ZeroCapacityRankCountsOnlyWhenLoaded) {
  EXPECT_DOUBLE_EQ(peak_relative_load({2.0, 6.0}, {1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(peak_relative_load({0.0, 6.0}, {0.0, 4.0}), 1.5);
  EXPECT_TRUE(std::isinf(peak_relative_load({1.0, 6.0}, {0.0, 4.0})));
}

TEST(LptPlace, HeaviestFirstAndTiesGoToTheLargerCapacity) {
  // Works {1, 2} on capacities {1, 3}: 2 lands on rank 1 (2/3 vs 2), then
  // 1 ties at relative load 1 on both ranks and goes to the larger rank.
  const LptPlacement p = lpt_place({1.0, 2.0}, {1.0, 3.0});
  EXPECT_EQ(p.order, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(p.owner, (std::vector<rank_t>{1, 1}));
  EXPECT_EQ(p.loads, (std::vector<real_t>{0.0, 3.0}));
  EXPECT_EQ(lpt_place({1.0, 1.0}, {0.0, 1.0}).owner,
            (std::vector<rank_t>{1, 1}));  // zero capacity takes nothing
}

// ---- invariants common to all partitioners --------------------------------

struct PartitionerCase {
  std::shared_ptr<const Partitioner> partitioner;
  std::vector<real_t> capacities;
  const char* label;
  /// GrACE's default targets equal shares, ignoring capacities.
  bool equal_shares = false;
};

std::ostream& operator<<(std::ostream& os, const PartitionerCase& c) {
  return os << c.label << "/" << c.capacities.size() << "procs";
}

class PartitionerInvariantTest
    : public ::testing::TestWithParam<PartitionerCase> {};

TEST_P(PartitionerInvariantTest, CoversInputExactlyOnce) {
  const auto& param = GetParam();
  BoxList boxes = uniform_grid_boxes(4, 8);
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  const PartitionResult r =
      param.partitioner->partition(boxes, param.capacities, kWork);

  // Same total cells, no overlaps among same-level assignment boxes.
  std::int64_t cells = 0;
  for (const auto& a : r.assignments) {
    cells += a.box.cells();
    EXPECT_GE(a.owner, 0);
    EXPECT_LT(a.owner, static_cast<rank_t>(param.capacities.size()));
  }
  EXPECT_EQ(cells, boxes.total_cells());

  BoxList all;
  for (const auto& a : r.assignments) all.push_back(a.box);
  EXPECT_FALSE(all.has_overlap());

  // Every input box is exactly covered by same-level assignment pieces.
  for (const Box& in : boxes) {
    std::vector<Box> pieces;
    for (const auto& a : r.assignments)
      if (a.box.level() == in.level() && in.intersects(a.box))
        pieces.push_back(a.box.intersection(in));
    EXPECT_TRUE(box_difference(in, pieces).empty());
  }
}

TEST_P(PartitionerInvariantTest, WorkBookkeepingConsistent) {
  const auto& param = GetParam();
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const PartitionResult r =
      param.partitioner->partition(boxes, param.capacities, kWork);
  ASSERT_EQ(r.assigned_work.size(), param.capacities.size());
  ASSERT_EQ(r.target_work.size(), param.capacities.size());
  real_t recomputed = 0;
  std::vector<real_t> per_rank(param.capacities.size(), 0);
  for (const auto& a : r.assignments) {
    const real_t w = box_work(a.box, kWork);
    recomputed += w;
    per_rank[static_cast<std::size_t>(a.owner)] += w;
  }
  EXPECT_NEAR(recomputed, total_work(boxes, kWork), 1e-9);
  for (std::size_t k = 0; k < per_rank.size(); ++k)
    EXPECT_NEAR(per_rank[k], r.assigned_work[k], 1e-9);
  EXPECT_NEAR(std::accumulate(r.target_work.begin(), r.target_work.end(),
                              real_t{0}),
              total_work(boxes, kWork), 1e-6);
}

// The capacity-proportional work allocation happens inside each
// partitioner: rank k's target is its capacity share of the total work.
TEST_P(PartitionerInvariantTest, TargetsAreCapacitySharesOfTotalWork) {
  const auto& param = GetParam();
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const PartitionResult r =
      param.partitioner->partition(boxes, param.capacities, kWork);
  const std::size_t n = param.capacities.size();
  ASSERT_EQ(r.target_work.size(), n);
  const real_t total = total_work(boxes, kWork);
  const real_t cap_sum = std::accumulate(
      param.capacities.begin(), param.capacities.end(), real_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    const real_t share = param.equal_shares
                             ? real_t{1} / static_cast<real_t>(n)
                             : param.capacities[k] / cap_sum;
    EXPECT_NEAR(r.target_work[k], share * total, 1e-12 * total)
        << "rank " << k;
  }
}

TEST_P(PartitionerInvariantTest, Deterministic) {
  const auto& param = GetParam();
  const BoxList boxes = uniform_grid_boxes(3, 8);
  const auto a = param.partitioner->partition(boxes, param.capacities, kWork);
  const auto b = param.partitioner->partition(boxes, param.capacities, kWork);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].box, b.assignments[i].box);
    EXPECT_EQ(a.assignments[i].owner, b.assignments[i].owner);
  }
}

std::vector<PartitionerCase> make_cases() {
  std::vector<PartitionerCase> cases;
  const std::vector<std::vector<real_t>> capsets{
      {0.16, 0.19, 0.31, 0.34},
      {0.25, 0.25, 0.25, 0.25},
      {0.5, 0.5},
      {0.05, 0.1, 0.15, 0.2, 0.2, 0.3},
      {1.0}};
  for (const auto& caps : capsets) {
    cases.push_back({std::make_shared<GraceDefaultPartitioner>(), caps,
                     "default", /*equal_shares=*/true});
    cases.push_back({std::make_shared<HeterogeneousPartitioner>(), caps,
                     "heterogeneous"});
    cases.push_back({std::make_shared<MultiAxisPartitioner>(), caps,
                     "multiaxis"});
    cases.push_back({std::make_shared<DistributedSfcPartitioner>(
                         SfcConfig{}, 1),
                     caps, "sfc_heterogeneous"});
    cases.push_back({std::make_shared<GreedyPartitioner>(), caps,
                     "greedy"});
    cases.push_back({std::make_shared<KnapsackPartitioner>(), caps,
                     "knapsack"});
    cases.push_back({std::make_shared<SfcKnapsackHybrid>(), caps,
                     "sfc_knapsack"});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPartitioners, PartitionerInvariantTest,
                         ::testing::ValuesIn(make_cases()));

// ---- scheme-specific behaviour --------------------------------------------

TEST(GraceDefault, SplitsEquallyRegardlessOfCapacity) {
  GraceDefaultPartitioner p;
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const auto r = p.partition(boxes, {0.1, 0.2, 0.3, 0.4}, kWork);
  const real_t expected = total_work(boxes, kWork) / 4;
  for (real_t w : r.assigned_work) EXPECT_NEAR(w, expected, expected * 0.2);
}

TEST(GraceDefault, ContiguousChunksPreserveLocality) {
  // On a uniform row of boxes the default partitioner must give each
  // processor a spatially contiguous run.
  GraceDefaultPartitioner p;
  BoxList boxes;
  for (coord_t i = 0; i < 8; ++i)
    boxes.push_back(
        Box::from_extent(IntVec(i * 4, 0, 0), IntVec(4, 4, 4), 0));
  const auto r = p.partition(boxes, {0.25, 0.25, 0.25, 0.25}, kWork);
  for (rank_t k = 0; k < 4; ++k) {
    std::vector<Box> mine;
    for (const BoxAssignment& a : r.assignments)
      if (a.owner == k) mine.push_back(a.box);
    ASSERT_EQ(mine.size(), 2u);
    // The two boxes of each rank are adjacent along x.
    const coord_t gap =
        std::abs(mine[0].lo().x - mine[1].lo().x);
    EXPECT_EQ(gap, 4);
  }
}

TEST(Heterogeneous, AssignsProportionallyToCapacities) {
  HeterogeneousPartitioner p;
  const BoxList boxes = uniform_grid_boxes(8, 8);  // 64 boxes: fine grain
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  const auto r = p.partition(boxes, caps, kWork);
  const real_t total = total_work(boxes, kWork);
  for (std::size_t k = 0; k < caps.size(); ++k)
    EXPECT_NEAR(r.assigned_work[k] / total, caps[k], 0.04);
}

TEST(Heterogeneous, NormalizesUnnormalizedCapacities) {
  HeterogeneousPartitioner p;
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const auto r = p.partition(boxes, {1.0, 3.0}, kWork);
  const real_t total = total_work(boxes, kWork);
  EXPECT_NEAR(r.assigned_work[1] / total, 0.75, 0.1);
}

TEST(Heterogeneous, SingleBoxIsBrokenAcrossProcessors) {
  HeterogeneousPartitioner p;
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(64, 8, 8), 0));
  const auto r = p.partition(boxes, {0.25, 0.25, 0.25, 0.25}, kWork);
  EXPECT_GE(r.splits, 3);
  for (real_t w : r.assigned_work) EXPECT_GT(w, 0.0);
}

TEST(Heterogeneous, SortingAvoidsUnnecessarySplits) {
  // Boxes whose sizes already match the capacity ladder need no breaking.
  HeterogeneousPartitioner p;
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)));
  boxes.push_back(Box::from_extent(IntVec(16, 0, 0), IntVec(4, 4, 8)));
  boxes.push_back(Box::from_extent(IntVec(32, 0, 0), IntVec(4, 4, 12)));
  boxes.push_back(Box::from_extent(IntVec(48, 0, 0), IntVec(4, 4, 16)));
  const real_t total = total_work(boxes, kWork);
  const std::vector<real_t> caps{64 / total, 128 / total, 192 / total,
                                 256 / total};
  const auto r = p.partition(boxes, caps, kWork);
  EXPECT_EQ(r.splits, 0);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 64.0);
  EXPECT_DOUBLE_EQ(r.assigned_work[3], 256.0);
}

TEST(Heterogeneous, ZeroCapacityProcessorGetsNothing) {
  HeterogeneousPartitioner p;
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const auto r = p.partition(boxes, {0.0, 0.5, 0.5}, kWork);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 0.0);
}

TEST(Heterogeneous, RejectsBadCapacities) {
  HeterogeneousPartitioner p;
  const BoxList boxes = uniform_grid_boxes(2, 8);
  EXPECT_THROW(p.partition(boxes, {}, kWork), Error);
  EXPECT_THROW(p.partition(boxes, {-0.5, 1.5}, kWork), Error);
  EXPECT_THROW(p.partition(boxes, {0.0, 0.0}, kWork), Error);
}

TEST(Greedy, NeverSplitsBoxes) {
  GreedyPartitioner p;
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const auto r = p.partition(boxes, {0.16, 0.19, 0.31, 0.34}, kWork);
  EXPECT_EQ(r.splits, 0);
  EXPECT_EQ(r.assignments.size(), boxes.size());
}

TEST(Greedy, TracksCapacitiesWhenGranularityAllows) {
  GreedyPartitioner p;
  const BoxList boxes = uniform_grid_boxes(8, 4);  // 64 small boxes
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  const auto r = p.partition(boxes, caps, kWork);
  const real_t total = total_work(boxes, kWork);
  for (std::size_t k = 0; k < caps.size(); ++k)
    EXPECT_NEAR(r.assigned_work[k] / total, caps[k], 0.05);
}

TEST(Greedy, ZeroCapacityRankGetsNothing) {
  GreedyPartitioner p;
  const BoxList boxes = uniform_grid_boxes(3, 4);
  const auto r = p.partition(boxes, {0.0, 0.5, 0.5}, kWork);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 0.0);
}

TEST(SfcHeterogeneous, BalancesLikeHeterogeneousWithBetterLocality) {
  const BoxList boxes = uniform_grid_boxes(8, 8);
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  const DistributedSfcPartitioner hybrid(SfcConfig{}, 1);
  HeterogeneousPartitioner het;
  const auto rh = hybrid.partition(boxes, caps, kWork);
  const auto rs = het.partition(boxes, caps, kWork);
  // Comparable balance...
  EXPECT_LT(effective_imbalance_pct(rh),
            effective_imbalance_pct(rs) + 5.0);
  // ...with no more communication than the size-sorted scheme.
  EXPECT_LE(partition_comm_cells(rh, 1), partition_comm_cells(rs, 1));
}

TEST(Knapsack, HandComputableTwoRankFixture) {
  // Works {64, 128, 192} on capacities {1/3, 2/3}.  LPT: 192 lands on the
  // fast rank (rel 288 vs 576), 128 on the slow rank (384 vs 480), 64 on
  // the fast rank (576 vs 384).  Both relative loads are then exactly 384,
  // and no exchange improves the peak, so the refinement keeps the seed:
  // assigned work {128, 256}.
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)));
  boxes.push_back(Box::from_extent(IntVec(16, 0, 0), IntVec(8, 4, 4)));
  boxes.push_back(Box::from_extent(IntVec(32, 0, 0), IntVec(12, 4, 4)));
  KnapsackPartitioner p;
  const auto r = p.partition(boxes, {1.0 / 3.0, 2.0 / 3.0}, kWork);
  EXPECT_EQ(r.splits, 0);
  ASSERT_EQ(r.assignments.size(), 3u);
  EXPECT_EQ(r.assignments[0].owner, 1);  // 64
  EXPECT_EQ(r.assignments[1].owner, 0);  // 128
  EXPECT_EQ(r.assignments[2].owner, 1);  // 192
  ASSERT_EQ(r.assigned_work.size(), 2u);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 128.0);
  EXPECT_DOUBLE_EQ(r.assigned_work[1], 256.0);
}

TEST(Knapsack, ExchangeRefinementBeatsPlainLpt) {
  // Works {5, 5, 4, 4, 4} on two equal ranks: the LPT seed ends at
  // {5+4+4, 5+4} = {13, 9} and no single move improves it (LPT seeds are
  // jump-optimal) — but swapping a 5 against a 4 reaches {12, 10}.  This
  // is exactly what separates the knapsack scheme from GreedyPartitioner.
  BoxList boxes;
  const coord_t cells[] = {5, 5, 4, 4, 4};
  for (coord_t i = 0; i < 5; ++i)
    boxes.push_back(Box::from_extent(IntVec(i * 8, 0, 0),
                                     IntVec(cells[i], 1, 1)));
  const std::vector<real_t> caps{0.5, 0.5};
  KnapsackPartitioner knapsack;
  GreedyPartitioner greedy;
  const auto rk = knapsack.partition(boxes, caps, kWork);
  const auto rg = greedy.partition(boxes, caps, kWork);
  EXPECT_DOUBLE_EQ(rg.assigned_work[0], 13.0);
  EXPECT_DOUBLE_EQ(rg.assigned_work[1], 9.0);
  EXPECT_DOUBLE_EQ(rk.assigned_work[0], 12.0);
  EXPECT_DOUBLE_EQ(rk.assigned_work[1], 10.0);
  const auto peak = [&](const PartitionResult& r) {
    return std::max(r.assigned_work[0] / caps[0],
                    r.assigned_work[1] / caps[1]);
  };
  EXPECT_LT(peak(rk), peak(rg));
}

TEST(Knapsack, ZeroCapacityRankGetsNothing) {
  KnapsackPartitioner p;
  const BoxList boxes = uniform_grid_boxes(3, 4);
  const auto r = p.partition(boxes, {0.0, 0.5, 0.5}, kWork);
  EXPECT_DOUBLE_EQ(r.assigned_work[0], 0.0);
}

TEST(SfcKnapsack, ContiguousCurveSegmentsNeverSplit) {
  // The hybrid refines only segment boundaries, so whatever the capacity
  // skew, each rank owns one contiguous SFC segment (rank order along the
  // curve) and no box is ever split.
  const BoxList boxes = uniform_grid_boxes(4, 8);
  const std::vector<real_t> caps{0.05, 0.15, 0.3, 0.5};
  SfcKnapsackHybrid p;
  const auto r = p.partition(boxes, caps, kWork);
  EXPECT_EQ(r.splits, 0);
  ASSERT_EQ(r.assignments.size(), boxes.size());

  const auto perm = sfc_order(boxes.boxes(), SfcConfig{});
  std::vector<rank_t> owner_at(perm.size(), -1);
  for (const auto& a : r.assignments) {
    std::size_t input = boxes.size();
    for (std::size_t i = 0; i < boxes.size(); ++i)
      if (boxes[i] == a.box) {
        input = i;
        break;
      }
    ASSERT_LT(input, boxes.size());
    for (std::size_t pos = 0; pos < perm.size(); ++pos)
      if (perm[pos] == input) owner_at[pos] = a.owner;
  }
  for (std::size_t pos = 1; pos < owner_at.size(); ++pos)
    EXPECT_GE(owner_at[pos], owner_at[pos - 1]) << "curve pos " << pos;
}

TEST(SfcKnapsack, RefinementTracksSkewedCapacities) {
  // On a fine-grained uniform workload the boundary refinement should land
  // each segment near its capacity-proportional share.
  const BoxList boxes = uniform_grid_boxes(8, 4);  // 64 small boxes
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  SfcKnapsackHybrid p;
  const auto r = p.partition(boxes, caps, kWork);
  const real_t total = total_work(boxes, kWork);
  for (std::size_t k = 0; k < caps.size(); ++k)
    EXPECT_NEAR(r.assigned_work[k] / total, caps[k], 0.05);
}

TEST(PartitionAudit, RejectsIntentionallyOverlappingAssignment) {
  // Negative control for the whole harness: hand the auditor an assignment
  // that claims the first box twice and drops the second entirely — it
  // must reject it, proving coverage/disjointness failures cannot pass.
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4)));
  boxes.push_back(Box::from_extent(IntVec(8, 0, 0), IntVec(4, 4, 4)));
  PartitionResult forged;
  forged.assignments = {{boxes[0], 0}, {boxes[0], 1}};
  forged.assigned_work = {64.0, 64.0};
  forged.target_work = {64.0, 64.0};
  const audit::AuditReport report = audit::validate_partition(
      boxes, forged, {0.5, 0.5}, kWork, PartitionConstraints{});
  EXPECT_FALSE(report.ok());
}

TEST(MultiAxis, ReducesImbalanceVersusLongestAxisOnly) {
  // A workload of a few large anisotropic boxes where plane granularity
  // along the longest axis is coarse: multi-axis splitting must not be
  // worse, and is typically better.
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(12, 10, 6), 0));
  boxes.push_back(Box::from_extent(IntVec(16, 0, 0), IntVec(14, 6, 10), 0));
  boxes.push_back(Box::from_extent(IntVec(40, 0, 0), IntVec(10, 12, 8), 0));
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  PartitionConstraints c;
  c.min_box_size = 2;
  HeterogeneousPartitioner single(c);
  MultiAxisPartitioner multi(c);
  const real_t i_single =
      effective_imbalance_pct(single.partition(boxes, caps, kWork));
  const real_t i_multi =
      effective_imbalance_pct(multi.partition(boxes, caps, kWork));
  EXPECT_LE(i_multi, i_single + 1e-9);
}

}  // namespace
}  // namespace ssamr
