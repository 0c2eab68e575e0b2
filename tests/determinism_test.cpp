// Determinism regression tests: the full adaptive runtime loop — trace and
// live-solver workload sources, heterogeneous partitioning, dynamic loads —
// must produce *bit-identical* results at 1, 2, and 8 threads.  This is the
// enforcement of the thread pool's determinism contract (parallel bodies
// write only per-index state; reductions combine in fixed index order).
// This suite is part of the multithreaded set run under TSan in CI.

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/ssamr.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {
namespace {

const int kThreadCounts[] = {1, 2, 8};

TraceConfig small_trace() {
  TraceConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  cfg.max_levels = 3;
  cfg.cluster.min_box_size = 2;
  cfg.cluster.small_box_cells = 64;
  return cfg;
}

RuntimeConfig small_runtime(int iters, int sensing) {
  RuntimeConfig cfg;
  cfg.total_iterations = iters;
  cfg.regrid_interval = 5;
  cfg.sensing.interval = sensing;
  cfg.executor.ncomp = 1;
  cfg.executor.ghost = 1;
  return cfg;
}

/// Full runtime loop over the synthetic AMR trace, with dynamic background
/// loads and default (seeded) sensor noise — every runtime subsystem the
/// pool parallelizes is exercised.
RunTrace run_trace_workload() {
  Cluster cluster = Cluster::homogeneous(4);
  LoadRamp ramp;
  ramp.rate = 0.01;
  ramp.target_level = 2.0;
  cluster.add_load(1, ramp);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(20, 5));
  return rt.run();
}

/// Full runtime loop around a live Berger–Oliger integration: per-patch
/// advance, flagging and Berger–Rigoutsos clustering all run through the
/// pool between regrids.
RunTrace run_solver_workload() {
  HierarchyConfig hc;
  hc.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  hc.max_levels = 2;
  hc.ncomp = 1;
  hc.ghost = 1;
  hc.min_box_size = 2;
  GridHierarchy hier(hc);
  AdvectionOperator op(1, 0, 0, 0.3, 0.25, 0.25, 0.12);
  GradientFlagger fl(0, 0.08);
  IntegratorConfig ic;
  ic.dx0 = 1.0 / 16.0;
  ic.regrid_interval = 5;
  ic.cluster.min_box_size = 2;
  ic.cluster.small_box_cells = 8;
  BergerOliger bo(hier, op, fl, ic);
  SolverWorkloadSource source(bo, hier, /*steps_per_regrid=*/5);

  Cluster cluster = Cluster::homogeneous(2);
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(15, 0));
  return rt.run();
}

/// Heterogeneous partition of the paper workload (splitting machinery and
/// work evaluation, no runtime loop).
std::vector<PartitionResult> run_partitions() {
  const auto caps = exp::reference_capacities4();
  SyntheticAmrTrace trace(exp::paper_trace_config());
  const WorkModel work;
  HeterogeneousPartitioner het;
  std::vector<PartitionResult> out;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const BoxList boxes = trace.boxes_at_epoch(epoch);
    out.push_back(het.partition(boxes, caps, work));
  }
  return out;
}

TEST(Determinism, TraceWorkloadBitIdenticalAcrossThreadCounts) {
  ThreadPoolOverride serial(1);
  const RunTrace reference = run_trace_workload();
  ASSERT_GT(reference.regrids.size(), 0u);
  ASSERT_GT(reference.total_time, Seconds{0.0});
  for (int threads : kThreadCounts) {
    ThreadPoolOverride ov(threads);
    const RunTrace got = run_trace_workload();
    EXPECT_TRUE(got == reference) << "threads=" << threads;
    // Spell out the headline numbers too, so a failure names the field.
    EXPECT_EQ(got.total_time, reference.total_time) << "threads=" << threads;
    EXPECT_EQ(got.compute_time, reference.compute_time)
        << "threads=" << threads;
    EXPECT_EQ(got.regrids.size(), reference.regrids.size())
        << "threads=" << threads;
  }
}

TEST(Determinism, SolverWorkloadBitIdenticalAcrossThreadCounts) {
  ThreadPoolOverride serial(1);
  const RunTrace reference = run_solver_workload();
  ASSERT_GT(reference.regrids.size(), 0u);
  for (int threads : kThreadCounts) {
    ThreadPoolOverride ov(threads);
    const RunTrace got = run_solver_workload();
    EXPECT_TRUE(got == reference) << "threads=" << threads;
    EXPECT_EQ(got.total_time, reference.total_time) << "threads=" << threads;
  }
}

TEST(Determinism, PartitionResultsBitIdenticalAcrossThreadCounts) {
  ThreadPoolOverride serial(1);
  const std::vector<PartitionResult> reference = run_partitions();
  ASSERT_FALSE(reference.empty());
  ASSERT_FALSE(reference.front().assignments.empty());
  for (int threads : kThreadCounts) {
    ThreadPoolOverride ov(threads);
    const std::vector<PartitionResult> got = run_partitions();
    ASSERT_EQ(got.size(), reference.size()) << "threads=" << threads;
    for (std::size_t e = 0; e < got.size(); ++e)
      EXPECT_TRUE(got[e] == reference[e])
          << "threads=" << threads << " epoch=" << e;
  }
}

TEST(Determinism, ComparePartitionersBitIdenticalAcrossThreadCounts) {
  // The bench drivers' core helpers: both partitioners under identical
  // static loads, and the system-sensitive run under dynamic loads.  The
  // golden-file regression tests rely on these being thread-count
  // independent.
  ThreadPoolOverride serial(1);
  const exp::Comparison reference =
      exp::compare_partitioners(4, /*iterations=*/20, /*sensing=*/5,
                                ExecModelKind::kBsp);
  const RunTrace dynamic_reference = exp::run_dynamic_het(
      4, /*iterations=*/20, /*sensing=*/5, /*tau=*/120.0, ExecModelKind::kBsp);
  for (int threads : kThreadCounts) {
    ThreadPoolOverride ov(threads);
    const exp::Comparison got =
        exp::compare_partitioners(4, 20, 5, ExecModelKind::kBsp);
    EXPECT_TRUE(got.system_sensitive == reference.system_sensitive)
        << "threads=" << threads;
    EXPECT_TRUE(got.grace_default == reference.grace_default)
        << "threads=" << threads;
    EXPECT_TRUE(exp::run_dynamic_het(4, 20, 5, 120.0, ExecModelKind::kBsp) ==
                dynamic_reference)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ssamr
