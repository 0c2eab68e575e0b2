#include "runtime/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "capacity/capacity_audit.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_audit.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace ssamr {

SolverWorkloadSource::SolverWorkloadSource(BergerOliger& integrator,
                                           GridHierarchy& hierarchy,
                                           int steps_per_regrid)
    : integrator_(integrator),
      hierarchy_(hierarchy),
      steps_per_regrid_(steps_per_regrid) {
  SSAMR_REQUIRE(steps_per_regrid >= 1, "steps_per_regrid must be >= 1");
}

BoxList SolverWorkloadSource::boxes_for_regrid(int regrid_index) {
  if (!initialized_) {
    integrator_.initialize();
    initialized_ = true;
  } else {
    for (int s = 0; s < steps_per_regrid_; ++s) integrator_.advance_step();
  }
  (void)regrid_index;
  return hierarchy_.composite_box_list();
}

AdaptiveRuntime::AdaptiveRuntime(Cluster& cluster, WorkloadSource& source,
                                 const Partitioner& partitioner,
                                 RuntimeConfig cfg)
    : cluster_(cluster),
      source_(source),
      partitioner_(partitioner),
      cfg_(cfg),
      monitor_(cluster, cfg.monitor),
      capacity_(cfg.weights),
      model_(make_execution_model(cfg.exec_model, cluster, cfg.executor)) {
  SSAMR_REQUIRE(cfg.total_iterations >= 1, "need at least one iteration");
  SSAMR_REQUIRE(cfg.regrid_interval >= 1, "regrid interval must be >= 1");
  SSAMR_REQUIRE(cfg.sensing.interval >= 0,
                "sensing interval must be non-negative");
  SSAMR_REQUIRE(cfg.sensing.capacity_change_threshold >= 0,
                "capacity change threshold must be non-negative");
}

RunTrace AdaptiveRuntime::run() {
  RunTrace trace;
  trace.model = model_->name();
  trace.num_ranks = cluster_.size();
  Seconds t{0};

  // Initial sensing sweep: capacities used until the first periodic probe.
  stage_sense(trace, t, /*iteration=*/0, /*initial=*/true);

  PartitionResult current;  // empty until the first regrid
  int regrid_index = 0;

  for (int iter = 0; iter < cfg_.total_iterations; ++iter) {
    // Periodic sensing (paper: every N iterations).
    if (cfg_.sensing.interval > 0 && iter > 0 &&
        iter % cfg_.sensing.interval == 0)
      stage_sense(trace, t, iter, /*initial=*/false);

    // Regrid + repartition every regrid_interval iterations (including
    // iteration 0: the initial distribution) — and immediately when a
    // sensing sweep quarantined or re-admitted a node, even off the
    // cadence: running on a dead node's stale distribution until the next
    // scheduled regrid wastes every iteration in between.
    const bool scheduled = iter % cfg_.regrid_interval == 0;
    if (scheduled || force_repartition_) {
      if (!scheduled) monitor_.health().record_forced_repartition();
      force_repartition_ = false;
      stage_repartition(trace, t, iter, regrid_index, current);
    }

    stage_advance(trace, t, iter, current);
  }

  model_->finish(trace, t);
  trace.total_time = t;
  // The health totals accumulated on the sensing lane (HealthLedger,
  // monitor/probe_health.hpp) become part of the finalized trace.
  trace.health = monitor_.health().snapshot();
  SSAMR_INFO << partitioner_.name() << ": " << trace.iterations
             << " iterations in " << trace.total_time.value()
             << " virtual s ("
             << trace.model << " model)";
  return trace;
}

void AdaptiveRuntime::stage_sense(RunTrace& trace, Seconds& t, int iteration,
                                  bool initial) {
  // probe_all folds the sweep's tallies into the monitor's HealthLedger;
  // run() snapshots the ledger into the trace once the run is over.
  const SweepResult sweep = monitor_.probe_all(t);
  const std::vector<real_t> fresh =
      capacity_.relative_capacities(sweep.estimates);
  // Every sweep, the initial one included, is charged to execution time.
  t += model_->sense(t, sweep.overhead_s, iteration);
  trace.sense_time += sweep.overhead_s;
  if (initial) {
    capacities_ = fresh;
    SSAMR_AUDIT(audit::validate_capacities(capacities_, cfg_.weights));
  } else if (sweep.health_event()) {
    // A node just dropped to zero or came back: hysteresis must not
    // swallow that, and the next iteration must repartition.
    capacities_ = fresh;
  } else {
    stage_adopt_capacities(fresh);
  }
  if (sweep.health_event()) force_repartition_ = true;
  trace.senses.push_back({iteration, t, capacities_});
}

void AdaptiveRuntime::stage_adopt_capacities(
    const std::vector<real_t>& fresh) {
  // Hysteresis: ignore jitter below the configured threshold so the
  // partitioner does not migrate data chasing sensor noise.
  real_t worst_shift = 0;
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    const real_t base = std::max(capacities_[k], real_t{1e-9});
    worst_shift =
        std::max(worst_shift, std::abs(fresh[k] - capacities_[k]) / base);
  }
  if (worst_shift >= cfg_.sensing.capacity_change_threshold)
    capacities_ = fresh;
}

void AdaptiveRuntime::stage_repartition(RunTrace& trace, Seconds& t,
                                        int iteration, int& regrid_index,
                                        PartitionResult& current) {
  const BoxList boxes = source_.boxes_for_regrid(regrid_index);
  SSAMR_REQUIRE(!boxes.empty(), "workload source produced no boxes");
  // Attach the regrid's particle field (if any) so the dual-constraint
  // cost prices cells + particles; nullptr leaves the cells-only model.
  cfg_.work.particles = source_.particles_for_regrid(regrid_index);
  PartitionResult next = partitioner_.partition(boxes, capacities_, cfg_.work);
  // Audit every regrid's distribution before acting on it: coverage,
  // disjointness, split legality and Eq. 1 work tracking.
  SSAMR_AUDIT(audit::validate_partition(boxes, next, capacities_, cfg_.work,
                                        partitioner_.constraints()));

  // Migration is priced at the pre-regrid time t (the bandwidths in effect
  // when the repartition was decided) — the BSP model depends on this for
  // bit-identity with the pre-seam accounting.
  const Seconds t_regrid = model_->regrid(t, boxes.size(), iteration);
  const Seconds t_migrate = model_->migrate(current, next, t);
  t += t_regrid + t_migrate;
  trace.regrid_time += t_regrid;
  trace.migrate_time += t_migrate;

  RegridRecord rec;
  rec.iteration = iteration;
  rec.regrid_index = regrid_index + 1;
  rec.vtime = t;
  rec.capacities = capacities_;
  rec.assigned_work = next.assigned_work;
  rec.target_work = next.target_work;
  rec.imbalance_pct = load_imbalance_pct(next);
  rec.splits = next.splits;
  rec.num_boxes = boxes.size();
  rec.total_work = Work{total_work(boxes, cfg_.work)};
  trace.regrids.push_back(std::move(rec));

  current = std::move(next);
  ++regrid_index;
}

void AdaptiveRuntime::stage_advance(RunTrace& trace, Seconds& t, int iteration,
                                    const PartitionResult& current) {
  const StepCost step = model_->advance(current, t, iteration);
  trace.compute_time += step.compute;
  trace.comm_time += step.comm;
  t += step.elapsed;
  ++trace.iterations;
}

}  // namespace ssamr
