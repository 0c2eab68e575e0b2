// Tests for the fault-injection subsystem and the fault-tolerant sensing
// loop: FaultPlan determinism and precedence, probe retry/backoff/timeout
// accounting, staleness fallback, quarantine/readmission, degraded-capacity
// safety (no NaN / zero-sum vectors), forced repartitioning, rejoin-time
// pricing of a crashed rank's traffic, the empty plan, the sweep price,
// and the bit-identity of the zero-fault path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/ssamr.hpp"
#include "sim/event_executor.hpp"
#include "util/error.hpp"

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

FaultEpisode episode(rank_t rank, FaultKind kind, real_t t0, real_t t1) {
  FaultEpisode e;
  e.rank = rank;
  e.kind = kind;
  e.t0 = Seconds{t0};
  e.t1 = Seconds{t1};
  return e;
}

// ---- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, ProbeFaultIsAPureFunctionOfSeedRankAttempt) {
  FaultPlan a;
  a.probe_timeout_rate = 0.3;
  a.probe_drop_rate = 0.2;
  FaultPlan b = a;
  // Query a in one order, b in another: outcomes must agree pointwise.
  std::vector<ProbeFault> fa, fb;
  for (int r = 0; r < 4; ++r)
    for (std::uint64_t k = 0; k < 50; ++k)
      fa.push_back(a.probe_fault(r, Seconds{1.0}, k));
  for (std::uint64_t k = 50; k-- > 0;)
    for (int r = 3; r >= 0; --r)
      fb.push_back(b.probe_fault(r, Seconds{1.0}, k));
  int faults = 0;
  for (int r = 0; r < 4; ++r)
    for (std::uint64_t k = 0; k < 50; ++k) {
      const auto ia = static_cast<std::size_t>(r) * 50 + k;
      const auto ib = (49 - k) * 4 + static_cast<std::size_t>(3 - r);
      EXPECT_EQ(fa[ia], fb[ib]);
      if (fa[ia] != ProbeFault::kNone) ++faults;
    }
  // 50% combined rate over 200 draws: a degenerate hash would give 0 or 200.
  EXPECT_GT(faults, 50);
  EXPECT_LT(faults, 150);
}

TEST(FaultPlan, ScriptedFactoryIsDeterministic) {
  FaultProfile profile;
  profile.probe_timeout_rate = 0.1;
  profile.stale_windows = 3;
  profile.crash_episodes = 2;
  const FaultPlan a = FaultPlan::scripted(8, Seconds{500.0}, profile, 99);
  const FaultPlan b = FaultPlan::scripted(8, Seconds{500.0}, profile, 99);
  ASSERT_EQ(a.episodes().size(), 5u);
  for (std::size_t i = 0; i < a.episodes().size(); ++i) {
    EXPECT_EQ(a.episodes()[i].rank, b.episodes()[i].rank);
    EXPECT_EQ(a.episodes()[i].t0, b.episodes()[i].t0);
    EXPECT_EQ(a.episodes()[i].t1, b.episodes()[i].t1);
  }
}

TEST(FaultPlan, EpisodeKindsMapToProbeFaults) {
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeDrop, 10.0, 20.0));
  plan.add(episode(1, FaultKind::kStaleWindow, 10.0, 20.0));
  plan.add(episode(2, FaultKind::kCrash, 10.0, 20.0));
  EXPECT_EQ(plan.probe_fault(0, Seconds{15.0}, 0), ProbeFault::kDrop);
  EXPECT_EQ(plan.probe_fault(1, Seconds{15.0}, 0), ProbeFault::kStale);
  EXPECT_EQ(plan.probe_fault(2, Seconds{15.0}, 0), ProbeFault::kTimeout);
  // Outside the windows (and with zero random rates) nothing faults.
  EXPECT_EQ(plan.probe_fault(0, Seconds{25.0}, 0), ProbeFault::kNone);
  EXPECT_EQ(plan.probe_fault(0, Seconds{9.999}, 0), ProbeFault::kNone);
  // Stale windows freeze the observable time at their start.
  EXPECT_DOUBLE_EQ(plan.observable_time(1, Seconds{15.0}).value(), 10.0);
  EXPECT_DOUBLE_EQ(plan.observable_time(1, Seconds{25.0}).value(), 25.0);
  // Crash coverage and rejoin.
  EXPECT_TRUE(plan.node_down(2, Seconds{15.0}));
  EXPECT_FALSE(plan.node_down(2, Seconds{20.0}));
  EXPECT_DOUBLE_EQ(plan.resume_time(2, Seconds{15.0}).value(), 20.0);
  EXPECT_DOUBLE_EQ(plan.resume_time(2, Seconds{5.0}).value(), 5.0);
}

TEST(FaultPlan, EmptyPlanNeverFaults) {
  // The default plan is the fault-free cluster: no probe attempt faults, no
  // node is ever down, and every node is up at any time it is asked about.
  const FaultPlan plan;
  const Cluster cluster = Cluster::homogeneous(8);
  EXPECT_TRUE(cluster.fault_plan().episodes().empty());
  for (rank_t r = 0; r < 8; ++r)
    for (const real_t t : {0.0, 0.5, 17.25, 1.0e3, 1.0e9})
      for (std::uint64_t attempt : {0u, 1u, 2u, 999u, 123456u}) {
        EXPECT_EQ(plan.probe_fault(r, Seconds{t}, attempt), ProbeFault::kNone);
        EXPECT_EQ(cluster.fault_plan().probe_fault(r, Seconds{t}, attempt),
                  ProbeFault::kNone);
        EXPECT_FALSE(plan.node_down(r, Seconds{t}));
        EXPECT_EQ(plan.resume_time(r, Seconds{t}), Seconds{t});
        EXPECT_EQ(cluster.resume_time(r, Seconds{t}), Seconds{t});
        EXPECT_EQ(plan.observable_time(r, Seconds{t}), Seconds{t});
      }
}

TEST(FaultPlan, ResumeTimeFollowsChainedEpisodes) {
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kCrash, 10.0, 20.0));
  plan.add(episode(0, FaultKind::kCrash, 18.0, 30.0));
  EXPECT_DOUBLE_EQ(plan.resume_time(0, Seconds{12.0}).value(), 30.0);
}

TEST(FaultPlan, ValidatesInputs) {
  FaultProfile bad;
  bad.probe_timeout_rate = 0.8;
  bad.probe_drop_rate = 0.5;  // sums past 1
  EXPECT_THROW(FaultPlan::scripted(4, Seconds{100.0}, bad, 1), Error);
  EXPECT_THROW(FaultPlan::scripted(0, Seconds{100.0}, FaultProfile{}, 1),
               Error);
  EXPECT_THROW(FaultPlan::scripted(4, Seconds{-1.0}, FaultProfile{}, 1),
               Error);
  FaultPlan plan;
  EXPECT_THROW(plan.add(episode(0, FaultKind::kCrash, 5.0, 5.0)), Error);
  EXPECT_THROW(plan.add(episode(-1, FaultKind::kCrash, 0.0, 1.0)), Error);
}

// ---- Cluster integration --------------------------------------------------

TEST(Cluster, CrashEpisodeZeroesStateAndFloorsBandwidth) {
  Cluster c = Cluster::homogeneous(2);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kCrash, 10.0, 20.0));
  c.set_fault_plan(plan);
  const NodeState down = c.state_at(0, Seconds{15.0});
  EXPECT_DOUBLE_EQ(down.cpu_available.value(), 0.0);
  EXPECT_DOUBLE_EQ(down.memory_free_mb.value(), 0.0);
  EXPECT_GT(down.bandwidth_mbps, MbitsPerSec{0.0});
  // Up again after the episode; resume_time reports the rejoin.
  EXPECT_DOUBLE_EQ(c.state_at(0, Seconds{20.0}).cpu_available.value(), 1.0);
  EXPECT_DOUBLE_EQ(c.resume_time(0, Seconds{15.0}).value(), 20.0);
  EXPECT_DOUBLE_EQ(c.resume_time(1, Seconds{15.0}).value(), 15.0);
}

// ---- Pricing inside a crash episode ---------------------------------------
//
// Rank 1 crashes over [10 s, 20 s) and, until 17 s, background traffic eats
// 50 of its 100 Mbit/s.  At t = 15 s the down-state floor, the time-t
// bandwidth (50) and the rejoin-time bandwidth (100) are three different
// prices; every model must charge the last, because the compute side
// already charges the pause until rejoin.

Cluster traffic_cluster(bool crash) {
  Cluster c = Cluster::homogeneous(2);
  LoadRamp traffic;
  traffic.stop_time = Seconds{17.0};
  traffic.rate = 0;  // full level from the start
  traffic.traffic_mbps = MbitsPerSec{50.0};
  c.add_load(1, traffic);
  if (crash) {
    FaultPlan plan;
    plan.add(episode(1, FaultKind::kCrash, 10.0, 20.0));
    c.set_fault_plan(plan);
  }
  return c;
}

PartitionResult two_slabs() {
  PartitionResult r;
  r.assignments.push_back(
      {Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0), 0});
  r.assignments.push_back(
      {Box::from_extent(IntVec(8, 0, 0), IntVec(8, 8, 8), 0), 1});
  r.assigned_work = {512.0, 512.0};
  r.target_work = {512.0, 512.0};
  return r;
}

TEST(CrashPricing, CommTimesUseRejoinBandwidth) {
  const Cluster crashed = traffic_cluster(true);
  const Cluster healthy = traffic_cluster(false);
  const VirtualExecutor down(crashed, ExecutorConfig{});
  const VirtualExecutor up(healthy, ExecutorConfig{});
  const auto got = down.comm_times(two_slabs(), Seconds{15.0});
  const auto at_t = up.comm_times(two_slabs(), Seconds{15.0});
  const auto at_rejoin = up.comm_times(two_slabs(), Seconds{20.0});
  EXPECT_EQ(got[1], at_rejoin[1]);
  EXPECT_LT(at_rejoin[1], at_t[1]);  // the time-t price differs
  EXPECT_EQ(got[0], at_t[0]);        // the live rank is priced at t
}

TEST(CrashPricing, MigrationTimeUsesRejoinBandwidth) {
  const Cluster crashed = traffic_cluster(true);
  const Cluster healthy = traffic_cluster(false);
  const VirtualExecutor down(crashed, ExecutorConfig{});
  const VirtualExecutor up(healthy, ExecutorConfig{});
  // Initial scatter: rank 1's slab travels 0 -> 1.
  const Seconds got = down.migration_time({}, two_slabs(), Seconds{15.0});
  const Seconds at_rejoin =
      up.migration_time({}, two_slabs(), Seconds{20.0});
  EXPECT_EQ(got, at_rejoin);
  EXPECT_LT(at_rejoin, up.migration_time({}, two_slabs(), Seconds{15.0}));
}

TEST(CrashPricing, EventMigrateUsesRejoinBandwidth) {
  const Cluster crashed = traffic_cluster(true);
  const Cluster healthy = traffic_cluster(false);
  // Fresh executors: every migration starts at virtual time 0, so only
  // the bandwidths read at t can differ.
  sim::EventExecutor down(crashed, ExecutorConfig{});
  sim::EventExecutor up_rejoin(healthy, ExecutorConfig{});
  sim::EventExecutor up_t(healthy, ExecutorConfig{});
  const Seconds got = down.migrate({}, two_slabs(), Seconds{15.0});
  const Seconds at_rejoin = up_rejoin.migrate({}, two_slabs(), Seconds{20.0});
  EXPECT_EQ(got, at_rejoin);
  EXPECT_LT(at_rejoin, up_t.migrate({}, two_slabs(), Seconds{15.0}));
}

// ---- Monitor: retries, backoff, staleness, quarantine ---------------------

MonitorConfig quiet_monitor() {
  MonitorConfig cfg;
  cfg.noise = SensorNoise{0, 0, 0};
  return cfg;
}

TEST(MonitorFaults, TimeoutProbePaysDeadlineRetriesAndBackoff) {
  Cluster c = Cluster::homogeneous(2);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeTimeout, 0.0, 1.0e9));
  c.set_fault_plan(plan);
  ResourceMonitor m(c, quiet_monitor());
  const ProbeOutcome bad = m.probe_outcome(0, Seconds{5.0});
  EXPECT_EQ(bad.status, ProbeStatus::kTimeout);
  EXPECT_EQ(bad.attempts, 3);  // 1 + 2 retries
  // 3 timed-out attempts at the 2 s deadline plus backoffs 0.25 and 0.5.
  EXPECT_DOUBLE_EQ(bad.elapsed_s.value(), 3 * 2.0 + 0.25 + 0.5);
  // The healthy node pays exactly one probe.
  const ProbeOutcome good = m.probe_outcome(1, Seconds{5.0});
  EXPECT_EQ(good.status, ProbeStatus::kOk);
  EXPECT_EQ(good.attempts, 1);
  EXPECT_DOUBLE_EQ(good.elapsed_s.value(), 0.5);
}

TEST(MonitorFaults, FastFailureCostsProbeNotDeadline) {
  Cluster c = Cluster::homogeneous(1);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeDrop, 0.0, 1.0e9));
  c.set_fault_plan(plan);
  ResourceMonitor m(c, quiet_monitor());
  const ProbeOutcome o = m.probe_outcome(0, Seconds{5.0});
  EXPECT_EQ(o.status, ProbeStatus::kFailed);
  EXPECT_DOUBLE_EQ(o.elapsed_s.value(), 3 * 0.5 + 0.25 + 0.5);
}

TEST(MonitorFaults, StaleWindowAnswersWithFrozenReadings) {
  Cluster c = Cluster::homogeneous(1);
  // Load ramps up sharply at t=10: a stale window frozen at t=5 must keep
  // reporting the unloaded state.
  LoadRamp r;
  r.start_time = Seconds{10.0};
  r.rate = 1e9;
  r.target_level = 1.0;
  c.add_load(0, r);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kStaleWindow, 5.0, 100.0));
  c.set_fault_plan(plan);
  ResourceMonitor m(c, quiet_monitor());
  // The first and only probe: a one-sample history forecasts its sample.
  const ProbeOutcome o = m.probe_outcome(0, Seconds{50.0});
  EXPECT_EQ(o.status, ProbeStatus::kStale);
  EXPECT_DOUBLE_EQ(o.estimate.cpu_available.value(), 1.0);  // the t=5 truth
}

TEST(MonitorFaults, UnreachableNodeDecaysTowardClusterMean) {
  Cluster c = Cluster::homogeneous(2);
  // Node 1 carries a steady load, so the cluster mean differs from node
  // 0's last-known-good reading.
  LoadRamp r;
  r.start_time = Seconds{-1.0};
  r.rate = 1e9;
  r.target_level = 1.0;
  c.add_load(1, r);
  ResourceMonitor m(c, quiet_monitor());
  // Establish last-known-good readings while everything is reachable (a
  // one-sample history forecasts its sample).
  (void)m.probe_all(Seconds{0.0});
  // Now node 0 goes dark.
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeTimeout, 1.0, 1.0e9));
  c.set_fault_plan(plan);
  const ProbeOutcome o = m.probe_outcome(0, Seconds{30.0});
  EXPECT_EQ(o.status, ProbeStatus::kTimeout);
  // Last good cpu = 1.0 (node 0 at t=0); the known-good mean averages both
  // nodes' last readings: (1.0 + 0.5) / 2 = 0.75.  Decay w = exp(-30/60).
  const real_t w = std::exp(-30.0 / 60.0);
  EXPECT_NEAR(o.estimate.cpu_available.value(), w * 1.0 + (1 - w) * 0.75,
              1e-9);
  EXPECT_TRUE(std::isfinite(o.estimate.memory_free_mb.value()));
  EXPECT_TRUE(std::isfinite(o.estimate.bandwidth_mbps.value()));
}

TEST(MonitorFaults, QuarantineAfterConsecutiveFailedSweepsThenReadmit) {
  Cluster c = Cluster::homogeneous(3);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeTimeout, 0.0, 100.0));
  c.set_fault_plan(plan);
  ResourceMonitor m(c, quiet_monitor());  // quarantined after 2 failures

  const SweepResult s1 = m.probe_all(Seconds{10.0});
  EXPECT_EQ(s1.timeouts, 1);
  EXPECT_FALSE(m.quarantined(0));
  EXPECT_EQ(m.fail_streak(0), 1);
  EXPECT_FALSE(s1.health_event());

  const SweepResult s2 = m.probe_all(Seconds{20.0});
  ASSERT_EQ(s2.quarantined.size(), 1u);
  EXPECT_EQ(s2.quarantined[0], 0);
  EXPECT_TRUE(s2.health_event());
  EXPECT_TRUE(m.quarantined(0));
  // Quarantined capacity is reported as zero on every axis.
  EXPECT_DOUBLE_EQ(s2.estimates[0].cpu_available.value(), 0.0);
  EXPECT_DOUBLE_EQ(s2.estimates[0].memory_free_mb.value(), 0.0);
  EXPECT_DOUBLE_EQ(s2.estimates[0].bandwidth_mbps.value(), 0.0);

  // While quarantined, the node gets a single attempt (no retry budget).
  const SweepResult s3 = m.probe_all(Seconds{30.0});
  EXPECT_TRUE(s3.quarantined.empty());
  EXPECT_TRUE(m.quarantined(0));

  // Past the episode the node answers again and is re-admitted.
  const SweepResult s4 = m.probe_all(Seconds{150.0});
  ASSERT_EQ(s4.readmitted.size(), 1u);
  EXPECT_EQ(s4.readmitted[0], 0);
  EXPECT_TRUE(s4.health_event());
  EXPECT_FALSE(m.quarantined(0));
  EXPECT_GT(s4.estimates[0].cpu_available, Fraction{0.0});
}

TEST(MonitorFaults, DegradedSweepNeverFeedsCapacityNanOrZeroSum) {
  // Every node unreachable from the start: no last-known-good exists, all
  // estimates fall back to zero — the capacity calculator must degrade to
  // uniform, not NaN.
  Cluster c = Cluster::homogeneous(4);
  FaultPlan plan;
  for (rank_t r = 0; r < 4; ++r)
    plan.add(episode(r, FaultKind::kProbeTimeout, 0.0, 1.0e9));
  c.set_fault_plan(plan);
  ResourceMonitor m(c, quiet_monitor());
  const SweepResult sweep = m.probe_all(Seconds{5.0});
  CapacityCalculator calc{CapacityWeights::equal()};
  const std::vector<real_t> caps = calc.relative_capacities(sweep.estimates);
  real_t sum = 0;
  for (const real_t cap : caps) {
    EXPECT_TRUE(std::isfinite(cap));
    sum += cap;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(MonitorFaults, SweepPriceIsTheSumOfItsProbes) {
  // A sweep costs its probes' elapsed times summed in rank order, fault
  // or no fault.  At 0.1 s a probe the ten-fold sum and the product
  // 0.1 × 10 differ in the last bit, so a sweep priced by multiplying
  // fails here.
  MonitorConfig cfg;
  cfg.probe_cost_s = Seconds{0.1};
  const Cluster c = Cluster::homogeneous(10);
  ResourceMonitor sweeping(c, cfg);
  ResourceMonitor twin(c, cfg);
  for (const real_t t : {0.0, 10.0, 20.0}) {
    Seconds fold{0};
    for (rank_t r = 0; r < c.size(); ++r) {
      const ProbeOutcome o = twin.probe_outcome(r, Seconds{t});
      EXPECT_EQ(o.attempts, 1);
      fold += o.elapsed_s;
    }
    ASSERT_NE(fold, cfg.probe_cost_s * 10.0);
    const SweepResult sweep = sweeping.probe_all(Seconds{t});
    EXPECT_EQ(sweep.overhead_s, fold) << "t = " << t;
    EXPECT_EQ(sweep.ok, c.size());
  }
}

TEST(MonitorFaults, ZeroFaultPathIsBitIdenticalWithPlanAttached) {
  MonitorConfig cfg;  // default (noisy, seeded) config
  Cluster plain = Cluster::homogeneous(3);
  // A cluster that held a faulting plan and was then handed the empty one:
  // set_fault_plan must replace the plan, not keep the one it held.
  Cluster with_plan = Cluster::homogeneous(3);
  FaultPlan faulty;
  faulty.add(episode(1, FaultKind::kProbeTimeout, 0.0, 1.0e9));
  with_plan.set_fault_plan(faulty);
  with_plan.set_fault_plan(FaultPlan{});
  ResourceMonitor a(plain, cfg);
  ResourceMonitor b(with_plan, cfg);
  for (int i = 0; i < 5; ++i) {
    const SweepResult sa = a.probe_all(Seconds{10.0 * i});
    const SweepResult sb = b.probe_all(Seconds{10.0 * i});
    ASSERT_EQ(sa.estimates.size(), sb.estimates.size());
    EXPECT_EQ(sa.overhead_s, sb.overhead_s);
    for (std::size_t k = 0; k < sa.estimates.size(); ++k) {
      EXPECT_EQ(sa.estimates[k].cpu_available,
                sb.estimates[k].cpu_available);
      EXPECT_EQ(sa.estimates[k].memory_free_mb,
                sb.estimates[k].memory_free_mb);
      EXPECT_EQ(sa.estimates[k].bandwidth_mbps,
                sb.estimates[k].bandwidth_mbps);
    }
  }
}

// ---- Runtime integration --------------------------------------------------

TEST(RuntimeFaults, QuarantineForcesOffCadenceRepartition) {
  // Sensing every 2 iterations, regrid every 5: quarantine events land off
  // the regrid cadence, so the forced-repartition path must fire.
  Cluster cluster = Cluster::homogeneous(4);
  FaultPlan plan;
  plan.add(episode(0, FaultKind::kProbeTimeout, 1.0, 1.0e9));
  cluster.set_fault_plan(plan);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  RuntimeConfig cfg = small_runtime(20, 2);
  AdaptiveRuntime rt(cluster, source, part, cfg);
  const RunTrace t = rt.run();
  EXPECT_GE(t.health.quarantines, 1);
  EXPECT_GE(t.health.forced_repartitions, 1);
  EXPECT_GT(t.health.timeouts, 0);
  // More regrids than the cadence alone would produce.
  EXPECT_GT(t.regrids.size(), 4u);
  // The quarantined node ends up with (essentially) no work.
  const RegridRecord& last = t.regrids.back();
  EXPECT_DOUBLE_EQ(last.capacities[0], 0.0);
}

TEST(RuntimeFaults, CrashAndRejoinProducesReadmissionAndStaysFinite) {
  Cluster cluster = Cluster::homogeneous(4);
  FaultPlan plan;
  // Node 2 is down from the start and rejoins mid-run.  The window must
  // cover the initial sweep: once a crashed node holds work, the crash
  // pause stalls the clock past the rejoin and no later sweep can land
  // inside the window.  A node the monitor has never reached reports zero
  // capacity, so node 2 holds no work until the second failed sweep
  // quarantines it; the monitor then observes the recovery.
  plan.add(episode(2, FaultKind::kCrash, 0.0, 12.0));
  cluster.set_fault_plan(plan);
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  RuntimeConfig cfg = small_runtime(30, 2);
  AdaptiveRuntime rt(cluster, source, part, cfg);
  const RunTrace t = rt.run();
  EXPECT_GE(t.health.quarantines, 1);
  EXPECT_GE(t.health.readmissions, 1);
  // At least the quarantine lands off the regrid cadence (the readmission
  // may coincide with a scheduled regrid, which doesn't count as forced).
  EXPECT_GE(t.health.forced_repartitions, 1);
  EXPECT_TRUE(std::isfinite(t.total_time.value()));
  EXPECT_GT(t.total_time, Seconds{0.0});
  for (const SenseRecord& s : t.senses) {
    real_t sum = 0;
    for (const real_t cap : s.capacities) {
      EXPECT_TRUE(std::isfinite(cap));
      EXPECT_GE(cap, 0.0);
      sum += cap;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RuntimeFaults, TwentyPercentProbeFailuresCompleteAllScenarios) {
  // The acceptance bar: a 20% per-attempt probe failure rate (plus stale
  // and crash scripting) must not stop any run or corrupt any capacity
  // vector, under either execution model.
  for (const ExecModelKind model :
       {ExecModelKind::kBsp, ExecModelKind::kEvent}) {
    FaultProfile profile;
    profile.probe_timeout_rate = 0.1;
    profile.probe_drop_rate = 0.1;
    profile.stale_windows = 2;
    profile.crash_episodes = 1;
    Cluster cluster = Cluster::homogeneous(4);
    cluster.set_fault_plan(FaultPlan::scripted(4, Seconds{100.0}, profile, 7));
    TraceWorkloadSource source(small_trace());
    HeterogeneousPartitioner part;
    RuntimeConfig cfg = small_runtime(25, 2);
    cfg.exec_model = model;
    AdaptiveRuntime rt(cluster, source, part, cfg);
    const RunTrace t = rt.run();
    EXPECT_EQ(t.iterations, 25);
    EXPECT_TRUE(std::isfinite(t.total_time.value()));
    for (const SenseRecord& s : t.senses)
      for (const real_t cap : s.capacities) {
        EXPECT_TRUE(std::isfinite(cap));
        EXPECT_GE(cap, 0.0);
      }
  }
}

TEST(RuntimeFaults, ZeroFaultRunBitIdenticalWithPlan) {
  auto run_once = [](bool replace_faulty_plan) {
    Cluster cluster = Cluster::homogeneous(4);
    LoadRamp r;
    r.rate = 0.01;
    r.target_level = 2.0;
    cluster.add_load(1, r);
    if (replace_faulty_plan) {
      // Install a plan that faults, then the empty plan over it: the run
      // must match a cluster that never held a plan.
      FaultProfile profile;
      profile.probe_timeout_rate = 0.1;
      profile.probe_drop_rate = 0.1;
      profile.crash_episodes = 1;
      cluster.set_fault_plan(
          FaultPlan::scripted(4, Seconds{100.0}, profile, 7));
      cluster.set_fault_plan(FaultPlan{});
    }
    TraceWorkloadSource source(small_trace());
    HeterogeneousPartitioner part;
    RuntimeConfig cfg = small_runtime(20, 5);
    cfg.monitor.noise = SensorNoise{};  // default noise, seeded
    AdaptiveRuntime rt(cluster, source, part, cfg);
    return rt.run();
  };
  const RunTrace plain = run_once(false);
  const RunTrace replaced = run_once(true);
  EXPECT_TRUE(plain == replaced);  // bit-exact whole-trace comparison
  EXPECT_EQ(replaced.health.timeouts, 0);
  EXPECT_EQ(plain.health.quarantines, 0);
  EXPECT_EQ(plain.health.forced_repartitions, 0);
}

// ---- Config validation ----------------------------------------------------

TEST(MonitorFaults, NewKnobsAreValidated) {
  Cluster c = Cluster::homogeneous(1);
  MonitorConfig cfg;
  cfg.probe_cost_s = Seconds{2.5};  // above the 2 s probe deadline
  EXPECT_THROW(ResourceMonitor(c, cfg), Error);
  cfg.probe_cost_s = kProbeDeadline;  // a probe may cost the whole deadline
  EXPECT_NO_THROW(ResourceMonitor(c, cfg));
}

TEST(Capacity, RejectsNonFiniteEstimates) {
  CapacityCalculator calc{CapacityWeights::equal()};
  std::vector<ResourceEstimate> est(2);
  est[0].cpu_available = Fraction{std::numeric_limits<real_t>::quiet_NaN()};
  EXPECT_THROW(calc.relative_capacities(est), Error);
  est[0].cpu_available = Fraction{std::numeric_limits<real_t>::infinity()};
  EXPECT_THROW(calc.relative_capacities(est), Error);
}

}  // namespace
}  // namespace ssamr
