// Tests for the virtual-time execution model.

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "sim/executor.hpp"

namespace ssamr {
namespace {

PartitionResult simple_partition() {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(8, 0, 0), IntVec(8, 8, 8), 0), 1});
  r.assigned_work = {512.0, 512.0};
  r.target_work = {512.0, 512.0};
  return r;
}

/// Share of every node's rate left after the executor's 2 % monitor
/// intrusion.
constexpr real_t kRateShare = 1.0 - 0.02;

ExecutorConfig test_config() {
  ExecutorConfig cfg;
  cfg.ncomp = 1;
  cfg.ghost = 1;
  cfg.comm_overlap = Fraction{0.0};
  cfg.app_base_memory_mb = MegaBytes{0.0};
  return cfg;
}

TEST(Executor, MemoryDemandCountsOwnedCells) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{512.0};  // one second per patch
  spec.memory_mb = MegaBytes{2.0};
  Cluster c = Cluster::homogeneous(2, spec);
  ExecutorConfig cfg = test_config();
  cfg.app_base_memory_mb = MegaBytes{2.0};  // fills the node exactly
  VirtualExecutor ex(c, cfg);
  // 512 owned cells x 1 comp x 8 bytes x 2 time levels = 8192 bytes over
  // the 2 MB free, so paging slows the rank by 4 x (overcommit - 1).
  const auto times = ex.compute_times(simple_partition(), Seconds{0.0});
  EXPECT_NEAR(times[0].value(),
              (1.0 + 4.0 * (8192.0 / 1e6) / 2.0) / kRateShare, 1e-9);
}

TEST(Executor, ComputeTimeIsWorkOverRate) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{512.0};  // one second per patch
  Cluster c = Cluster::homogeneous(2, spec);
  VirtualExecutor ex(c, test_config());
  const auto times = ex.compute_times(simple_partition(), Seconds{0.0});
  EXPECT_NEAR(times[0].value(), 1.0 / kRateShare, 1e-9);
  EXPECT_NEAR(times[1].value(), 1.0 / kRateShare, 1e-9);
}

TEST(Executor, LoadedNodeComputesSlower) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{512.0};
  Cluster c = Cluster::homogeneous(2, spec);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 1.0;  // halves cpu
  c.add_load(0, r);
  VirtualExecutor ex(c, test_config());
  const auto times = ex.compute_times(simple_partition(), Seconds{0.0});
  EXPECT_NEAR(times[0].value(), 2.0 / kRateShare, 1e-9);
  EXPECT_NEAR(times[1].value(), 1.0 / kRateShare, 1e-9);
}

TEST(Executor, MonitorIntrusionShavesRate) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{512.0};
  Cluster c = Cluster::homogeneous(2, spec);
  VirtualExecutor ex(c, test_config());
  // One second of work at peak takes 1 / 0.98 s: the monitor steals 2 %.
  const Seconds t = ex.compute_times(simple_partition(), Seconds{0.0})[0];
  EXPECT_GT(t, Seconds{1.0});
  EXPECT_NEAR(t.value(), 1.0 / 0.98, 1e-12);
}

TEST(Executor, CommTimesReflectPartitionBoundary) {
  Cluster c = Cluster::homogeneous(2);
  VirtualExecutor ex(c, test_config());
  const auto comm = ex.comm_times(simple_partition(), Seconds{0.0});
  // Two ranks share an 8x8 face, ghost 1: 64 cells each way, 8 B/cell.
  EXPECT_GT(comm[0], Seconds{0.0});
  EXPECT_NEAR(comm[0].value(), comm[1].value(), 1e-12);
}

TEST(Executor, OverlapHidesCommunication) {
  Cluster c = Cluster::homogeneous(2);
  ExecutorConfig cfg = test_config();
  cfg.comm_overlap = Fraction{0.75};
  VirtualExecutor ex_overlap(c, cfg);
  VirtualExecutor ex_raw(c, test_config());
  const auto raw = ex_raw.comm_times(simple_partition(), Seconds{0.0});
  const auto hidden =
      ex_overlap.comm_times(simple_partition(), Seconds{0.0});
  EXPECT_NEAR(hidden[0].value(), raw[0].value() * 0.25, 1e-12);
}

TEST(Executor, RegridAndPartitionCostsScaleWithBoxes) {
  Cluster c = Cluster::homogeneous(2);
  VirtualExecutor ex(c, test_config());
  // Regrid (base + per box), then the partitioner (per box), in that
  // order of summation.
  EXPECT_DOUBLE_EQ(ex.regrid_cost(10).value(),
                   (0.05 + 0.002 * 10) + 0.0005 * 10);
  EXPECT_DOUBLE_EQ(ex.regrid_cost(0).value(), 0.05);
}

/// Bytes a rank sends plus receives: the sum of its incident flows.
std::int64_t incident_bytes(const std::vector<RankFlow>& flows, rank_t rank) {
  std::int64_t total = 0;
  for (const RankFlow& f : flows)
    if (f.src == rank || f.dst == rank) total += f.bytes;
  return total;
}

TEST(Executor, InitialMigrationIsAScatterFromRankZero) {
  Cluster c = Cluster::homogeneous(2);
  VirtualExecutor ex(c, test_config());
  const auto next = simple_partition();
  // Rank 1's box must move from rank 0: 512 cells * 8 bytes.
  const auto flows = ex.migration_flows({}, next);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0], (RankFlow{0, 1, 512 * 8}));
  EXPECT_EQ(incident_bytes(flows, 1), 512 * 8);
  EXPECT_EQ(incident_bytes(flows, 0), 512 * 8);  // sender side
  EXPECT_GT(ex.migration_time({}, next, Seconds{0.0}), Seconds{0.0});
}

TEST(Executor, MigrationCountsOnlyChangedOwnership) {
  Cluster c = Cluster::homogeneous(2);
  VirtualExecutor ex(c, test_config());
  const auto prev = simple_partition();
  EXPECT_TRUE(ex.migration_flows(prev, prev).empty());
  // Swap owners: everything moves.
  PartitionResult swapped = prev;
  swapped.assignments[0].owner = 1;
  swapped.assignments[1].owner = 0;
  EXPECT_EQ(incident_bytes(ex.migration_flows(prev, swapped), 0),
            2 * 512 * 8);
}

TEST(Executor, MigrationUsesBoxOverlapNotIdentity) {
  Cluster c = Cluster::homogeneous(2);
  VirtualExecutor ex(c, test_config());
  const auto prev = simple_partition();
  // New partition splits at x=4 instead of x=8: cells 4..7 move 0 -> 1.
  PartitionResult next;
  next.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(4, 8, 8), 0), 0});
  next.assignments.push_back(
      {Box::from_extent(IntVec(4, 0, 0), IntVec(12, 8, 8), 0), 1});
  next.assigned_work = {256, 768};
  next.target_work = {256, 768};
  EXPECT_EQ(incident_bytes(ex.migration_flows(prev, next), 1),
            4 * 8 * 8 * 8);
}

TEST(Executor, PagingDegradesLoadedNodeThroughput) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{512.0};
  spec.memory_mb = MegaBytes{4.0};  // tiny node: the patch data will not fit
  Cluster c = Cluster::homogeneous(2, spec);
  ExecutorConfig cfg = test_config();
  cfg.app_base_memory_mb = MegaBytes{8.0};  // > 4 MB free
  VirtualExecutor ex(c, cfg);
  const auto times = ex.compute_times(simple_partition(), Seconds{0.0});
  EXPECT_GT(times[0], Seconds{1.5});  // paging beyond the 1.0 s baseline
}

TEST(Executor, ValidatesConfigAndArity) {
  Cluster c = Cluster::homogeneous(2);
  ExecutorConfig bad = test_config();
  bad.ncomp = 0;
  EXPECT_THROW(VirtualExecutor(c, bad), Error);
  VirtualExecutor ex(c, test_config());
  PartitionResult r = simple_partition();
  r.assigned_work = {1.0};  // arity mismatch with 2-node cluster
  EXPECT_THROW(ex.compute_times(r, Seconds{0.0}), Error);
}

}  // namespace
}  // namespace ssamr
