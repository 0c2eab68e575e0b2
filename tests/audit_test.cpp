// The invariant-audit subsystem: every validator must pass known-good
// structures clean and flag deliberately corrupted ones, and the
// SSAMR_AUDIT hook must enforce reports (throw on errors, tolerate
// warnings).

// Force the hook on in this translation unit regardless of build mode.
#ifndef SSAMR_ENABLE_AUDIT
#define SSAMR_ENABLE_AUDIT 1
#endif

#include <cmath>

#include <gtest/gtest.h>

#include "amr/hierarchy.hpp"
#include "amr/hierarchy_audit.hpp"
#include "amr/workload.hpp"
#include "capacity/capacity_audit.hpp"
#include "cluster/cluster.hpp"
#include "cluster/cluster_audit.hpp"
#include "monitor/monitor_audit.hpp"
#include "partition/heterogeneous.hpp"
#include "partition/partition_audit.hpp"
#include "sim/executor_audit.hpp"
#include "util/audit.hpp"
#include "util/audit_report.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

using audit::AuditReport;
using audit::Severity;

// ---- AuditReport mechanics -------------------------------------------------

TEST(AuditReport, StartsCleanAndOk) {
  AuditReport r("subject");
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.error_count(), 0u);
  EXPECT_NE(r.summary().find("clean"), std::string::npos);
}

TEST(AuditReport, WarningsDoNotFailOk) {
  AuditReport r("subject");
  r.add(Severity::Warning, "some.check", "here", "soft bound exceeded");
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.warning_count(), 1u);
  EXPECT_TRUE(r.has("some.check"));
  EXPECT_FALSE(r.has("other.check"));
}

TEST(AuditReport, ErrorsFailOkAndMergeAccumulates) {
  AuditReport a("a");
  a.add(Severity::Error, "x.broken", "", "bad");
  AuditReport b("b");
  b.add(Severity::Warning, "y.soft", "", "meh");
  b.merge(a);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.error_count(), 1u);
  EXPECT_EQ(b.warning_count(), 1u);
  EXPECT_TRUE(b.has("x.broken"));
  EXPECT_EQ(b.of_check("x.broken").size(), 1u);
}

// ---- capacities ------------------------------------------------------------

TEST(ValidateCapacities, AcceptsNormalizedVector) {
  EXPECT_TRUE(audit::validate_capacities({0.16, 0.19, 0.31, 0.34}).clean());
}

TEST(ValidateCapacities, FlagsSumNotOne) {
  const AuditReport r = audit::validate_capacities({0.3, 0.3, 0.3});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("capacity.normalization"));
}

TEST(ValidateCapacities, FlagsNegativeAndOversizedEntries) {
  const AuditReport r = audit::validate_capacities({-0.2, 1.2});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.of_check("capacity.range").size(), 2u);
}

TEST(ValidateCapacities, FlagsEmptyVector) {
  EXPECT_TRUE(audit::validate_capacities({}).has("capacity.size"));
}

TEST(ValidateCapacities, FlagsInvalidWeights) {
  CapacityWeights w;
  w.cpu = 0.9;  // sum now 0.9 + 1/3 + 1/3 != 1
  const AuditReport r = audit::validate_capacities({0.5, 0.5}, w);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("capacity.weights"));
}

// ---- partition -------------------------------------------------------------

BoxList sample_workload() {
  BoxList boxes;
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(64, 8, 8), 0));
  boxes.push_back(Box::from_extent(IntVec(0, 16, 0), IntVec(32, 8, 8), 0));
  boxes.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  return boxes;
}

TEST(ValidatePartition, AcceptsRealPartitionerOutput) {
  const HeterogeneousPartitioner p;
  const WorkModel work;
  const std::vector<real_t> caps{0.16, 0.19, 0.31, 0.34};
  const PartitionResult r =
      p.partition(sample_workload(), caps, work);
  const AuditReport report = audit::validate_partition(
      sample_workload(), r, caps, work, p.constraints());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ValidatePartition, FlagsOverlappingAssignments) {
  const WorkModel work;
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  PartitionResult r;
  r.assignments = {{b, 0}, {b, 1}};  // the same box handed to two ranks
  r.assigned_work = {box_work(b, work), box_work(b, work)};
  r.target_work = {box_work(b, work), 0.0};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{b}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.overlap"));
}

TEST(ValidatePartition, FlagsUncoveredInput) {
  const WorkModel work;
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  const auto halves = b.split(0, 8);
  PartitionResult r;
  r.assignments = {{halves.first, 0}};  // second half never assigned
  r.assigned_work = {box_work(halves.first, work), 0.0};
  r.target_work = {box_work(b, work) / 2, box_work(b, work) / 2};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{b}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.coverage"));
}

TEST(ValidatePartition, FlagsOwnerOutOfRange) {
  const WorkModel work;
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  PartitionResult r;
  r.assignments = {{b, 7}};
  r.assigned_work = {box_work(b, work), 0.0};
  r.target_work = {box_work(b, work), 0.0};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{b}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.ranks"));
}

TEST(ValidatePartition, FlagsPieceOutsideEveryInputBox) {
  const WorkModel work;
  const Box in = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  const Box stray = Box::from_extent(IntVec(100, 0, 0), IntVec(8, 8, 8), 0);
  PartitionResult r;
  r.assignments = {{in, 0}, {stray, 1}};
  r.assigned_work = {box_work(in, work), box_work(stray, work)};
  r.target_work = {box_work(in, work), box_work(stray, work)};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{in}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.containment"));
}

TEST(ValidatePartition, FlagsMinBoxSizeViolation) {
  const WorkModel work;
  const Box in = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  // A 2-plane sliver along x: legal splits may not go below min_box_size 4.
  const auto pieces = in.split(0, 2);
  PartitionResult r;
  r.assignments = {{pieces.first, 0}, {pieces.second, 1}};
  r.assigned_work = {box_work(pieces.first, work),
                     box_work(pieces.second, work)};
  r.target_work = r.assigned_work;
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{in}}), r, {0.1, 0.9}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.min_box"));
  EXPECT_FALSE(report.has("partition.aspect_ratio"));  // aspect 4 is fine
}

TEST(ValidatePartition, FlagsAspectRatioViolation) {
  const WorkModel work;
  const Box in = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 8, 8), 0);
  // A one-cell-thick slab of aspect ratio 64 — far beyond the bound 16
  // reachable by legal splitting (64 / min_box_size 4).
  const auto pieces = in.split(1, 1);
  PartitionResult r;
  r.assignments = {{pieces.first, 0}, {pieces.second, 1}};
  r.assigned_work = {box_work(pieces.first, work),
                     box_work(pieces.second, work)};
  r.target_work = r.assigned_work;
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{in}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.aspect_ratio"));
}

TEST(ValidatePartition, FlagsCorruptedWorkBookkeeping) {
  const WorkModel work;
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  PartitionResult r;
  r.assignments = {{b, 0}};
  r.assigned_work = {2 * box_work(b, work), 0.0};  // inflated
  r.target_work = {box_work(b, work), 0.0};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{b}}), r, {0.5, 0.5}, work);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("partition.work_bookkeeping"));
  EXPECT_TRUE(report.has("partition.work_sum"));
}

TEST(ValidatePartition, WarnsOnLoadFarFromTarget) {
  const WorkModel work;
  const Box b = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  PartitionResult r;
  r.assignments = {{b, 0}};
  r.assigned_work = {box_work(b, work), 0.0};
  // Targets claim an even split, but rank 0 got everything.
  r.target_work = {box_work(b, work) / 2, box_work(b, work) / 2};
  const AuditReport report = audit::validate_partition(
      BoxList({std::vector<Box>{b}}), r, {0.5, 0.5}, work);
  EXPECT_TRUE(report.ok());  // warnings only
  EXPECT_TRUE(report.has("partition.load_tracking"));
}

// ---- hierarchy -------------------------------------------------------------

HierarchyConfig small_hierarchy_config() {
  HierarchyConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 32, 32), 0);
  cfg.max_levels = 3;
  cfg.ncomp = 1;
  cfg.ghost = 2;
  cfg.min_box_size = 4;
  return cfg;
}

TEST(ValidateHierarchy, AcceptsWellFormedHierarchy) {
  GridHierarchy h(small_hierarchy_config());
  h.set_level_boxes(
      1, BoxList({std::vector<Box>{
             Box::from_extent(IntVec(8, 8, 8), IntVec(16, 16, 16), 1)}}));
  h.set_level_boxes(
      2, BoxList({std::vector<Box>{
             Box::from_extent(IntVec(20, 20, 20), IntVec(8, 8, 8), 2)}}));
  const AuditReport r = audit::validate_hierarchy(h);
  EXPECT_TRUE(r.clean()) << r.summary();
}

TEST(ValidateHierarchy, FlagsOverlappingPatches) {
  GridHierarchy h(small_hierarchy_config());
  h.set_level_boxes(
      1, BoxList({std::vector<Box>{
             Box::from_extent(IntVec(8, 8, 8), IntVec(16, 16, 16), 1)}}));
  // Corrupt the level behind set_level_boxes' back: a second patch over an
  // already-covered region.
  h.level(1).add_patch(
      Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  const AuditReport r = audit::validate_hierarchy(h);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("hierarchy.overlap"));
}

TEST(ValidateHierarchy, WarnsOnUndersizedBoxes) {
  GridHierarchy h(small_hierarchy_config());
  h.set_level_boxes(1, BoxList({std::vector<Box>{Box::from_extent(
                           IntVec(0, 0, 0), IntVec(2, 2, 2), 1)}}));
  const AuditReport r = audit::validate_hierarchy(h);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.has("hierarchy.min_box"));
}

TEST(ValidateHierarchy, WarnsOnRatioMisalignment) {
  GridHierarchy h(small_hierarchy_config());
  h.set_level_boxes(1, BoxList({std::vector<Box>{Box::from_extent(
                           IntVec(1, 0, 0), IntVec(8, 8, 8), 1)}}));
  const AuditReport r = audit::validate_hierarchy(h);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.has("hierarchy.alignment"));
}

TEST(ValidateHierarchy, FlagsGhostStorageMismatch) {
  const HierarchyConfig cfg = small_hierarchy_config();
  GridHierarchy h(cfg);
  // Replace the base patch's field with one of the wrong ghost width.
  h.level(0).patch(0).data() =
      GridFunction(cfg.domain, cfg.ncomp, cfg.ghost + 1);
  const AuditReport r = audit::validate_hierarchy(h);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("hierarchy.ghost"));
}

// ---- cluster ---------------------------------------------------------------

TEST(ValidateCluster, AcceptsLoadedClusterOverTime) {
  Cluster c = Cluster::homogeneous(4);
  LoadRamp ramp;
  ramp.start_time = Seconds{10.0};
  ramp.rate = 0.5;
  ramp.target_level = 3.0;
  ramp.memory_mb = MegaBytes{100.0};
  ramp.traffic_mbps = MbitsPerSec{40.0};
  c.add_load(0, ramp);
  for (real_t t : {0.0, 15.0, 60.0, 600.0})
    EXPECT_TRUE(audit::validate_cluster(c, Seconds{t}).clean())
        << audit::validate_cluster(c, Seconds{t}).summary();
}

TEST(ValidateNodeState, FlagsAvailabilityOutsideUnitInterval) {
  NodeState s;
  s.cpu_available = Fraction{1.5};
  const AuditReport r = audit::validate_node_state(NodeSpec{}, s, "rank 0");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("cluster.availability"));
}

TEST(ValidateNodeState, FlagsMemoryBeyondSpec) {
  NodeSpec spec;
  spec.memory_mb = MegaBytes{256.0};
  NodeState s;
  s.memory_free_mb = MegaBytes{512.0};
  const AuditReport r = audit::validate_node_state(spec, s, "rank 0");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("cluster.memory"));
}

TEST(ValidateNodeState, FlagsDeadLink) {
  NodeState s;
  s.bandwidth_mbps = MbitsPerSec{0.0};
  const AuditReport r = audit::validate_node_state(NodeSpec{}, s, "rank 0");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("cluster.bandwidth"));
}

TEST(ValidateNodeState, FlagsBrokenSpec) {
  NodeSpec spec;
  spec.peak_rate = WorkRate{0.0};
  const AuditReport r =
      audit::validate_node_state(spec, NodeState{}, "rank 0");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("cluster.spec"));
}

// ---- config validators -----------------------------------------------------

TEST(ValidateExecutorConfig, AcceptsDefaults) {
  EXPECT_TRUE(audit::validate_executor_config(ExecutorConfig{}).ok());
}

TEST(ValidateExecutorConfig, RejectsNegativeCosts) {
  ExecutorConfig cfg;
  cfg.app_base_memory_mb = MegaBytes{std::nan("")};  // NaN must not pass a >= 0 gate
  EXPECT_TRUE(audit::validate_executor_config(cfg).has("executor.app_memory"));
}

TEST(ValidateExecutorConfig, RejectsDegenerateFieldShape) {
  ExecutorConfig cfg;
  cfg.ncomp = 0;
  EXPECT_TRUE(audit::validate_executor_config(cfg).has("executor.ncomp"));
  cfg = ExecutorConfig{};
  cfg.ghost = -1;
  EXPECT_TRUE(audit::validate_executor_config(cfg).has("executor.ghost"));
  cfg = ExecutorConfig{};
  cfg.time_levels = 0;
  EXPECT_TRUE(audit::validate_executor_config(cfg).has("executor.time_levels"));
}

TEST(ValidateExecutorConfig, RejectsOutOfRangeFractions) {
  ExecutorConfig cfg;
  cfg.comm_overlap = Fraction{1.5};
  EXPECT_TRUE(
      audit::validate_executor_config(cfg).has("executor.comm_overlap"));
  cfg.comm_overlap = Fraction{-0.1};
  EXPECT_TRUE(
      audit::validate_executor_config(cfg).has("executor.comm_overlap"));
}

TEST(ValidateExecutorConfig, VirtualExecutorEnforcesAtConstruction) {
  Cluster cluster = Cluster::homogeneous(2);
  ExecutorConfig cfg;
  cfg.ncomp = 0;
  EXPECT_THROW(VirtualExecutor(cluster, cfg), Error);
}

TEST(ValidateMonitorConfig, AcceptsDefaults) {
  EXPECT_TRUE(audit::validate_monitor_config(MonitorConfig{}).ok());
}

TEST(ValidateMonitorConfig, RejectsBadKnobs) {
  MonitorConfig cfg;
  cfg.probe_cost_s = Seconds{-0.5};
  EXPECT_TRUE(audit::validate_monitor_config(cfg).has("monitor.probe_cost"));
  cfg = MonitorConfig{};
  cfg.noise.cpu_sigma = -0.01;
  EXPECT_TRUE(audit::validate_monitor_config(cfg).has("monitor.noise"));
}

TEST(ValidateMonitorConfig, ResourceMonitorEnforcesAtConstruction) {
  Cluster cluster = Cluster::homogeneous(2);
  MonitorConfig cfg;
  cfg.probe_cost_s = Seconds{-1.0};
  EXPECT_THROW(ResourceMonitor(cluster, cfg), Error);
}

// ---- the SSAMR_AUDIT hook --------------------------------------------------

AuditReport report_with(Severity s) {
  AuditReport r("hook");
  r.add(s, "hook.check", "here", "triggered");
  return r;
}

TEST(AuditHook, EnabledInThisTranslationUnit) {
  EXPECT_TRUE(audit::hooks_enabled());
}

TEST(AuditHook, ThrowsOnErrorReport) {
  EXPECT_THROW(SSAMR_AUDIT(report_with(Severity::Error)), Error);
}

TEST(AuditHook, ToleratesWarningsAndCleanReports) {
  EXPECT_NO_THROW(SSAMR_AUDIT(report_with(Severity::Warning)));
  EXPECT_NO_THROW(SSAMR_AUDIT(AuditReport{"empty"}));
}

}  // namespace
}  // namespace ssamr
