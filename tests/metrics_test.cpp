// Tests for partition quality metrics (Eq. 2 imbalance, comm volume), and
// randomized differential tests of the rank-to-rank flow extractors against
// the all-pairs oracles in oracle.hpp.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lattice.hpp"
#include "oracle.hpp"
#include "partition/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

PartitionResult two_rank_result(real_t w0, real_t w1, real_t l0, real_t l1) {
  PartitionResult r;
  r.assigned_work = {w0, w1};
  r.target_work = {l0, l1};
  return r;
}

TEST(Imbalance, Equation2Exact) {
  // I_k = |W_k - L_k| / L_k * 100
  const auto r = two_rank_result(120, 80, 100, 100);
  const auto i = load_imbalance_pct(r);
  EXPECT_DOUBLE_EQ(i[0], 20.0);
  EXPECT_DOUBLE_EQ(i[1], 20.0);
  EXPECT_DOUBLE_EQ(max_load_imbalance_pct(r), 20.0);
}

TEST(Imbalance, PerfectAssignmentIsZero) {
  const auto i = load_imbalance_pct(two_rank_result(100, 200, 100, 200));
  EXPECT_DOUBLE_EQ(i[0], 0.0);
  EXPECT_DOUBLE_EQ(i[1], 0.0);
}

TEST(Imbalance, ZeroTargetHandled) {
  const auto i = load_imbalance_pct(two_rank_result(0, 100, 0, 100));
  EXPECT_DOUBLE_EQ(i[0], 0.0);
  const auto j = load_imbalance_pct(two_rank_result(10, 90, 0, 100));
  EXPECT_GT(j[0], 1000.0);  // sentinel: work assigned against zero target
}

TEST(Imbalance, EffectiveImbalanceIsWorstOverload) {
  EXPECT_NEAR(effective_imbalance_pct(two_rank_result(130, 70, 100, 100)),
              30.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      effective_imbalance_pct(two_rank_result(90, 100, 100, 100)), 0.0);
}

TEST(CommCells, AdjacentBoxesDifferentOwners) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 1});
  r.assigned_work = {64, 64};
  r.target_work = {64, 64};
  // Ghost width 1: each box's shell overlaps the other by one 4x4 face.
  EXPECT_EQ(partition_comm_cells(r, 1), 2 * 16);
  // Ghost width 2: two planes each.
  EXPECT_EQ(partition_comm_cells(r, 2), 2 * 32);
}

TEST(CommCells, SameOwnerCostsNothing) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 0});
  EXPECT_EQ(partition_comm_cells(r, 2), 0);
}

TEST(CommCells, DifferentLevelsDoNotExchange) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 1), 1});
  EXPECT_EQ(partition_comm_cells(r, 2), 0);
}

TEST(CommCells, DistantBoxesDoNotExchange) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(40, 0, 0), IntVec(4, 4, 4), 0), 1});
  EXPECT_EQ(partition_comm_cells(r, 2), 0);
}

TEST(RankCommBytes, CountsBothDirectionsForOneRank) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 1});
  const std::int64_t expected =
      2 * 16 * 5 * static_cast<std::int64_t>(sizeof(real_t));
  EXPECT_EQ(rank_comm_bytes(r, 0, 1, 5), expected);
  EXPECT_EQ(rank_comm_bytes(r, 1, 1, 5), expected);
  EXPECT_EQ(rank_comm_bytes(r, 2, 1, 5), 0);
  EXPECT_THROW(rank_comm_bytes(r, 0, 1, 0), Error);
}

TEST(PartitionResultHelper, BoxesOfFiltersByOwner) {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(2, 2, 2), 0), 1});
  r.assignments.push_back(
      {Box::from_extent(IntVec(8, 0, 0), IntVec(2, 2, 2), 0), 0});
  EXPECT_EQ(r.boxes_of(0).size(), 2u);
  EXPECT_EQ(r.boxes_of(1).size(), 1u);
  EXPECT_EQ(r.boxes_of(7).size(), 0u);
}

TEST(Imbalance, MalformedResultRejected) {
  PartitionResult r;
  r.assigned_work = {1.0};
  r.target_work = {1.0, 2.0};
  EXPECT_THROW(load_imbalance_pct(r), Error);
}

TEST(TransferFlows, MatchBruteForceOverlapScan) {
  // A 3-rank relayout with partial overlaps: rank 0's box splits between
  // ranks 1 and 2, rank 1's moves wholesale, a refined box stays put.
  PartitionResult prev;
  prev.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(8, 4, 4), 0), 0});
  prev.assignments.push_back(
      {Box::from_extent(IntVec(8, 0, 0), IntVec(4, 4, 4), 0), 1});
  prev.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1), 2});
  PartitionResult next;
  next.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 1});
  next.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 2});
  next.assignments.push_back(
      {Box::from_extent(IntVec(8, 0, 0), IntVec(4, 4, 4), 0), 2});
  next.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 1), 2});
  const std::int64_t cell_bytes = 40;
  const auto got = ownership_transfer_flows(prev, next, cell_bytes);
  const auto want = oracle::ownership_transfer_flows(prev, next, cell_bytes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
  }
  // Sorted (src, dst), no self or zero flows.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NE(got[i].src, got[i].dst);
    EXPECT_GT(got[i].bytes, 0);
    if (i > 0) {
      EXPECT_TRUE(std::make_pair(got[i - 1].src, got[i - 1].dst) <
                  std::make_pair(got[i].src, got[i].dst));
    }
  }
}

TEST(TransferFlows, EmptyPreviousScattersFromRankZero) {
  PartitionResult next;
  next.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0), 0});
  next.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(4, 4, 4), 0), 2});
  const auto flows = ownership_transfer_flows(PartitionResult{}, next, 8);
  ASSERT_EQ(flows.size(), 1u);  // rank 0's own box moves nothing
  EXPECT_EQ(flows[0].src, 0);
  EXPECT_EQ(flows[0].dst, 2);
  EXPECT_EQ(flows[0].bytes, 64 * 8);
  EXPECT_THROW(ownership_transfer_flows(PartitionResult{}, next, 0), Error);
}

// ---------------------------------------------------------------------------
// Flow extractors against the all-pairs oracles

/// `boxes` with about half of them split in two along a random axis.
std::vector<Box> resplit(Rng& rng, const std::vector<Box>& boxes) {
  std::vector<Box> out;
  for (const Box& b : boxes) {
    const auto axis = static_cast<int>(rng.uniform_int(0, 2));
    const coord_t e = b.extent()[axis];
    if (e < 2 || rng.uniform() < 0.5) {
      out.push_back(b);
      continue;
    }
    const auto [first, second] = b.split(axis, rng.uniform_int(1, e - 1));
    out.push_back(first);
    out.push_back(second);
  }
  return out;
}

/// Random owners over `nranks` ranks.  Every fourth draw hands all boxes
/// to one rank; every fourth, offset by two, leaves one rank with nothing.
PartitionResult random_partition(Rng& rng, const std::vector<Box>& boxes,
                                 int nranks, int draw) {
  PartitionResult r;
  r.assigned_work.assign(static_cast<std::size_t>(nranks), 0);
  r.target_work.assign(static_cast<std::size_t>(nranks), 0);
  const auto pick = [&] {
    return static_cast<rank_t>(rng.uniform_int(0, nranks - 1));
  };
  const rank_t single = draw % 4 == 0 ? pick() : -1;
  const rank_t idle = draw % 4 == 2 && nranks > 1 ? pick() : -1;
  for (const Box& b : boxes) {
    rank_t owner = single >= 0 ? single : pick();
    if (owner == idle) owner = (owner + 1) % nranks;
    r.assignments.push_back({b, owner});
  }
  return r;
}

IntVec trial_origin(int trial) {
  return IntVec(trial % 3 == 1 ? -600 : 0, trial % 4 == 2 ? -250 : 0,
                trial % 5 == 3 ? -37 : 0);
}

TEST(FlowOracle, GhostFlowsMatchAllPairsScan) {
  Rng rng(0xf10'9);
  std::size_t flows = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::vector<Box> boxes =
        fuzz::touching_lattice(rng, trial_origin(trial));
    const auto nranks = static_cast<int>(rng.uniform_int(1, 8));
    const PartitionResult r = random_partition(rng, boxes, nranks, trial);
    for (const coord_t ghost : {0, 1, 2})
      for (const int ncomp : {1, 5}) {
        const auto got = pairwise_comm_bytes(r, ghost, ncomp);
        EXPECT_EQ(got, oracle::pairwise_comm_bytes(r, ghost, ncomp))
            << "trial " << trial << " ghost " << ghost << " ncomp " << ncomp;
        flows += got.size();
      }
  }
  // The lattices must actually exchange ghosts, or the test is vacuous.
  EXPECT_GT(flows, 1000u);
}

TEST(FlowOracle, MigrationFlowsMatchAllPairsScan) {
  Rng rng(0x319'7a);
  std::size_t flows = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::vector<Box> boxes =
        fuzz::touching_lattice(rng, trial_origin(trial));
    const auto nranks = static_cast<int>(rng.uniform_int(1, 8));
    const PartitionResult prev = random_partition(rng, boxes, nranks, trial);
    // An owner re-map of the same boxes, a re-split box set, and the
    // reverse of the re-split.
    const PartitionResult remap =
        random_partition(rng, boxes, nranks, trial + 1);
    const PartitionResult split =
        random_partition(rng, resplit(rng, boxes), nranks, trial + 3);
    const std::pair<const PartitionResult*, const PartitionResult*> cases[] = {
        {&prev, &remap}, {&prev, &split}, {&split, &prev}};
    for (const std::int64_t cell_bytes : {8, 40}) {
      for (const auto& [from, to] : cases) {
        const auto got = ownership_transfer_flows(*from, *to, cell_bytes);
        EXPECT_EQ(got, oracle::ownership_transfer_flows(*from, *to, cell_bytes))
            << "trial " << trial << " cell_bytes " << cell_bytes;
        flows += got.size();
      }
      // An empty previous partition: initial scatter from rank 0.
      EXPECT_EQ(ownership_transfer_flows(PartitionResult{}, remap, cell_bytes),
                oracle::ownership_transfer_flows(PartitionResult{}, remap,
                                                 cell_bytes))
          << "trial " << trial << " (initial placement)";
    }
  }
  EXPECT_GT(flows, 1000u);
}

}  // namespace
}  // namespace ssamr
