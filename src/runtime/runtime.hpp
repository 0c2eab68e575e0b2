#pragma once
/// \file runtime.hpp
/// The adaptive system-sensitive runtime (paper Figure 5 / Figure 6).
///
/// Couples the four components of the paper's architecture:
///   application (a WorkloadSource producing bounding-box lists at each
///   regrid) → resource monitoring tool (ResourceMonitor) → capacity
///   calculator (CapacityCalculator) → heterogeneous partitioner
///   (any Partitioner) — and prices execution on the simulated cluster
///   through an ExecutionModel (closed-form BSP accounting or the
///   message-level discrete-event simulation), producing a RunTrace.
///
/// run() is decomposed into named stages — sense, adopt-capacities,
/// repartition (partition + migrate), advance — each charging its cost to
/// the global virtual clock through the model.

#include <memory>
#include <vector>

#include "amr/integrator.hpp"
#include "amr/trace_generator.hpp"
#include "capacity/capacity.hpp"
#include "cluster/cluster.hpp"
#include "monitor/monitor_service.hpp"
#include "partition/partitioner.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "sim/exec_model.hpp"

namespace ssamr {

/// Produces the application's composite bounding-box list at each regrid.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;
  /// Boxes for the `regrid_index`-th regrid (0-based, called in order).
  virtual BoxList boxes_for_regrid(int regrid_index) = 0;
  /// Particle field coupled to the same regrid, or nullptr when the
  /// workload carries no particles (the default).  The pointer must stay
  /// valid until the next boxes_for_regrid/particles_for_regrid call, and
  /// the next particles_for_regrid call may move the field it points to
  /// in place (TraceWorkloadSource does); the runtime attaches it to the
  /// work model for the repartition.
  virtual const ParticleField* particles_for_regrid(int regrid_index) {
    (void)regrid_index;
    return nullptr;
  }
};

/// WorkloadSource over the deterministic synthetic SAMR trace.
class TraceWorkloadSource final : public WorkloadSource {
 public:
  explicit TraceWorkloadSource(TraceConfig cfg) : trace_(cfg) {}
  BoxList boxes_for_regrid(int regrid_index) override {
    return trace_.boxes_at_epoch(regrid_index);
  }
  /// Draws the cloud on the first call and only moves it after that.
  const ParticleField* particles_for_regrid(int regrid_index) override {
    if (trace_.config().particles.count == 0) return nullptr;
    if (particles_.empty())
      particles_ = trace_.particles_at_epoch(regrid_index);
    else
      particles_.place(trace_.interface_position(regrid_index));
    return &particles_;
  }

 private:
  SyntheticAmrTrace trace_;
  ParticleField particles_;
};

/// WorkloadSource over a live Berger–Oliger integration: advances the real
/// solver between regrids and hands out the actual hierarchy.
class SolverWorkloadSource final : public WorkloadSource {
 public:
  /// \param steps_per_regrid coarse steps to advance between regrids; the
  ///        integrator's own regrid_interval should match the runtime's.
  SolverWorkloadSource(BergerOliger& integrator, GridHierarchy& hierarchy,
                       int steps_per_regrid);
  BoxList boxes_for_regrid(int regrid_index) override;

 private:
  BergerOliger& integrator_;
  GridHierarchy& hierarchy_;
  int steps_per_regrid_;
  bool initialized_ = false;
};

/// Sensing policy (paper §6.1.4 "Dynamic Load Sensing").
struct SensingPolicy {
  /// Probe the monitor every this many iterations; 0 = sense only once
  /// before the start of the simulation (the paper's "static" mode).
  int interval = 0;
  /// Adopt freshly sensed capacities only when some node's relative
  /// capacity moved by more than this fraction since the capacities the
  /// partitioner is currently using (hysteresis against sensor noise:
  /// repartitioning on jitter migrates data for nothing).  0 = always
  /// adopt.
  real_t capacity_change_threshold = 0.0;
};

/// Runtime configuration.
struct RuntimeConfig {
  int total_iterations = 200;
  /// Repartition every this many iterations (paper: regrid every 5).
  int regrid_interval = 5;
  SensingPolicy sensing;
  CapacityWeights weights;  ///< Eq. 1 weights (paper: equal)
  WorkModel work;
  MonitorConfig monitor;
  ExecutorConfig executor;
  /// How stages are priced on the virtual cluster.  kBsp reproduces the
  /// original closed-form accounting bit-for-bit; kEvent simulates
  /// message-level traffic with per-rank timelines (exec_model.hpp).
  ExecModelKind exec_model = ExecModelKind::kBsp;
};

/// The system-sensitive runtime driver.
class AdaptiveRuntime {
 public:
  /// All referenced objects must outlive the runtime.
  AdaptiveRuntime(Cluster& cluster, WorkloadSource& source,
                  const Partitioner& partitioner, RuntimeConfig cfg);

  /// Execute the configured number of iterations; returns the full trace.
  RunTrace run();

  /// The monitor (exposed for inspection after run()).
  ResourceMonitor& monitor() { return monitor_; }

  /// The execution model pricing the stages (exposed for inspection).
  const ExecutionModel& model() const { return *model_; }

 private:
  /// Probe the monitor, recompute relative capacities and charge the sweep
  /// to the model.  The initial sweep always adopts what it sensed (there
  /// is nothing to be hysteretic against); periodic sweeps go through
  /// stage_adopt_capacities.
  void stage_sense(RunTrace& trace, Seconds& t, int iteration, bool initial);

  /// Hysteresis: adopt freshly sensed capacities only when some node moved
  /// by more than the configured threshold.
  void stage_adopt_capacities(const std::vector<real_t>& fresh);

  /// Regrid the application, repartition under the current capacities,
  /// and charge regrid + migration to the model.
  void stage_repartition(RunTrace& trace, Seconds& t, int iteration,
                         int& regrid_index, PartitionResult& current);

  /// One coarse iteration under the current assignment.
  void stage_advance(RunTrace& trace, Seconds& t, int iteration,
                     const PartitionResult& current);

  Cluster& cluster_;
  WorkloadSource& source_;
  const Partitioner& partitioner_;
  RuntimeConfig cfg_;
  ResourceMonitor monitor_;
  CapacityCalculator capacity_;
  std::unique_ptr<ExecutionModel> model_;
  /// Capacities the partitioner currently uses (updated by sensing).
  std::vector<real_t> capacities_;
  /// Set when a sweep quarantined or re-admitted a node: the next
  /// iteration repartitions even off the regrid cadence.
  bool force_repartition_ = false;
};

}  // namespace ssamr
