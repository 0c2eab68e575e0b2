// Integration tests for the adaptive system-sensitive runtime.

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"
#include "core/experiment.hpp"
#include "core/ssamr.hpp"

namespace ssamr {
namespace {

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
  cfg.monitor.noise = SensorNoise{0, 0, 0};
  cfg.executor.ncomp = 1;
  cfg.executor.ghost = 1;
  return cfg;
}

TEST(AdaptiveRuntime, RecordsExpectedEventCounts) {
  Cluster cluster = Cluster::homogeneous(4);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(20, 5));
  const RunTrace t = rt.run();
  EXPECT_EQ(t.iterations, 20);
  EXPECT_EQ(t.regrids.size(), 4u);  // iterations 0, 5, 10, 15
  // Initial sense + senses at iterations 5, 10, 15.
  EXPECT_EQ(t.senses.size(), 4u);
  EXPECT_GT(t.total_time, Seconds{0.0});
  EXPECT_GT(t.compute_time, Seconds{0.0});
}

TEST(AdaptiveRuntime, SensingIntervalZeroSensesOnce) {
  Cluster cluster = Cluster::homogeneous(2);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(20, 0));
  const RunTrace t = rt.run();
  EXPECT_EQ(t.senses.size(), 1u);
  EXPECT_DOUBLE_EQ(t.sense_time.value(), 2 * 0.5);
}

TEST(AdaptiveRuntime, TimeBreakdownSumsBelowTotal) {
  Cluster cluster = Cluster::homogeneous(4);
  TraceWorkloadSource source(small_trace());
  GraceDefaultPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(15, 5));
  const RunTrace t = rt.run();
  const Seconds parts = t.compute_time + t.comm_time + t.sense_time +
                        t.regrid_time + t.migrate_time;
  EXPECT_NEAR(parts.value(), t.total_time.value(), t.total_time.value() * 0.01);
}

TEST(AdaptiveRuntime, DeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cluster = Cluster::homogeneous(4);
    LoadRamp r;
    r.rate = 0.01;
    r.target_level = 2.0;
    cluster.add_load(1, r);
    TraceWorkloadSource source(small_trace());
    HeterogeneousPartitioner part;
    RuntimeConfig cfg = small_runtime(20, 5);
    cfg.monitor.noise = SensorNoise{};  // default noise, seeded
    AdaptiveRuntime rt(cluster, source, part, cfg);
    return rt.run().total_time;
  };
  EXPECT_DOUBLE_EQ(run_once().value(), run_once().value());
}

TEST(AdaptiveRuntime, CapacitiesRespondToLoad) {
  Cluster cluster = Cluster::homogeneous(2);
  LoadRamp r;
  r.rate = 0;
  r.target_level = 3.0;  // cpu 0.25 on node 0 from the start
  cluster.add_load(0, r);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(10, 5));
  const RunTrace t = rt.run();
  ASSERT_FALSE(t.regrids.empty());
  const auto& caps = t.regrids.back().capacities;
  EXPECT_LT(caps[0], caps[1]);
  // And the partitioner followed the capacities.
  EXPECT_LT(t.regrids.back().assigned_work[0],
            t.regrids.back().assigned_work[1]);
}

TEST(AdaptiveRuntime, ImbalanceRecordedPerRegrid) {
  Cluster cluster = Cluster::homogeneous(4);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(10, 0));
  const RunTrace t = rt.run();
  for (const auto& rec : t.regrids) {
    EXPECT_EQ(rec.imbalance_pct.size(), 4u);
    EXPECT_EQ(rec.assigned_work.size(), 4u);
    EXPECT_GT(rec.total_work, Work{0.0});
    EXPECT_GT(rec.num_boxes, 0u);
  }
  EXPECT_GE(t.mean_max_imbalance_pct(), Percent{0.0});
}

TEST(AdaptiveRuntime, SystemSensitiveBeatsDefaultUnderLoad) {
  auto run_with = [](const Partitioner& p) {
    Cluster cluster = Cluster::homogeneous(4);
    LoadRamp r;
    r.rate = 0;
    r.target_level = 2.0;
    r.memory_mb = MegaBytes{100};
    cluster.add_load(0, r);
    TraceWorkloadSource source(small_trace());
    AdaptiveRuntime rt(cluster, source, p, small_runtime(30, 0));
    return rt.run().total_time;
  };
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  EXPECT_LT(run_with(het), run_with(def));
}

TEST(AdaptiveRuntime, MoreFrequentSensingCostsMoreSenseTime) {
  auto sense_time = [](int interval) {
    Cluster cluster = Cluster::homogeneous(4);
    TraceWorkloadSource source(small_trace());
    HeterogeneousPartitioner part;
    AdaptiveRuntime rt(cluster, source, part,
                       small_runtime(40, interval));
    return rt.run().sense_time;
  };
  EXPECT_GT(sense_time(5), sense_time(20));
}

TEST(AdaptiveRuntime, ValidatesConfig) {
  Cluster cluster = Cluster::homogeneous(2);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  RuntimeConfig cfg = small_runtime(0, 0);
  EXPECT_THROW(AdaptiveRuntime(cluster, source, part, cfg), Error);
  cfg = small_runtime(10, -1);
  EXPECT_THROW(AdaptiveRuntime(cluster, source, part, cfg), Error);
}

TEST(AdaptiveRuntime, HysteresisFreezesCapacitiesUnderNoise) {
  auto senses_with = [](real_t threshold) {
    Cluster cluster = Cluster::homogeneous(2);
    TraceWorkloadSource source(small_trace());
    HeterogeneousPartitioner part;
    RuntimeConfig cfg = small_runtime(30, 5);
    cfg.monitor.noise.cpu_sigma = 0.10;  // jitter only, no real load
    cfg.sensing.capacity_change_threshold = threshold;
    AdaptiveRuntime rt(cluster, source, part, cfg);
    return rt.run();
  };
  const RunTrace frozen = senses_with(10.0);  // never adopt
  const RunTrace loose = senses_with(0.0);    // always adopt
  // With a huge threshold the capacities never change after the first
  // sweep; with zero threshold they jitter.
  for (std::size_t i = 1; i < frozen.senses.size(); ++i)
    EXPECT_EQ(frozen.senses[i].capacities, frozen.senses[0].capacities);
  bool changed = false;
  for (std::size_t i = 1; i < loose.senses.size(); ++i)
    if (loose.senses[i].capacities != loose.senses[0].capacities)
      changed = true;
  EXPECT_TRUE(changed);
}

TEST(TraceWorkloadSource, PlacedParticlesCountAsFreshEpochs) {
  // The source draws its cloud once and moves it at every regrid; each
  // epoch must count exactly as the trace's fresh cloud for that epoch.
  // The fast interface reaches the far wall and turns back, so the cloud
  // is folded at both walls along the way.
  TraceConfig cfg = small_trace();
  cfg.speed = 0.09;
  cfg.particles.count = 3000;
  const SyntheticAmrTrace trace(cfg);
  TraceWorkloadSource source(cfg);
  for (int e = 0; e < 12; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const BoxList boxes = source.boxes_for_regrid(e);
    const ParticleField* placed = source.particles_for_regrid(e);
    ASSERT_NE(placed, nullptr);
    const ParticleField fresh = trace.particles_at_epoch(e);
    for (const Box& b : boxes)
      ASSERT_EQ(placed->count_in(b), fresh.count_in(b));
  }
}

TEST(SolverWorkloadSource, DrivesARealIntegration) {
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
  RuntimeConfig cfg = small_runtime(15, 0);
  AdaptiveRuntime rt(cluster, source, part, cfg);
  const RunTrace t = rt.run();
  EXPECT_EQ(t.regrids.size(), 3u);
  EXPECT_GT(bo.step(), 5);  // the real solver actually advanced
  // The hierarchy refined around the blob at some point.
  EXPECT_GE(hier.num_levels(), 2);
}

}  // namespace
}  // namespace ssamr
