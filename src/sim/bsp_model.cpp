#include "sim/bsp_model.hpp"

namespace ssamr::sim {

BspModel::BspModel(const Cluster& cluster, const ExecutorConfig& cfg)
    : exec_(cluster, cfg), lanes_(cluster.size(), SpanLog::kKeep) {}

Seconds BspModel::sense(Seconds t, Seconds sweep_s, int iteration) {
  // Charged serially: every rank waits for the sweep (the pre-seam
  // behaviour the paper measures as sensing overhead).
  lanes_.serial_sense(t, sweep_s, iteration);
  return sweep_s;
}

Seconds BspModel::regrid(Seconds t, std::size_t boxes, int iteration) {
  const Seconds cost = exec_.regrid_cost(boxes);
  lanes_.serial_regrid(t, cost, iteration);
  return cost;
}

Seconds BspModel::migrate(const PartitionResult& previous,
                          const PartitionResult& next, Seconds t) {
  // The pre-seam clock charges migration at the pre-regrid time t; the
  // spans start after the regrid work the driver adds alongside.
  const Seconds cost = exec_.migration_time(previous, next, t);
  lanes_.land_migration(t, cost);
  return cost;
}

StepCost BspModel::advance(const PartitionResult& r, Seconds t,
                           int iteration) {
  const auto comp = exec_.compute_times(r, t);
  const auto comm = exec_.comm_times(r, t);
  Seconds worst_total{0};
  std::size_t worst_k = 0;
  for (std::size_t k = 0; k < comp.size(); ++k) {
    if (comp[k] + comm[k] > worst_total) {
      worst_total = comp[k] + comm[k];
      worst_k = k;
    }
  }
  const Seconds worst_comp = comp[worst_k];
  for (std::size_t k = 0; k < comp.size(); ++k) {
    RankTimeline& lane = lanes_.rank(k);
    // Sum comp + comm before adding t: rounding is then monotone in the
    // per-rank total, so no lane can overshoot t + worst_total by an ulp.
    lane.advance(t + comp[k], SpanKind::kCompute, iteration);
    lane.advance(t + (comp[k] + comm[k]), SpanKind::kComm, iteration);
    lane.advance(t + worst_total, SpanKind::kIdle, iteration);
  }
  return StepCost{worst_total, worst_comp, worst_total - worst_comp};
}

void BspModel::finish(RunTrace& trace, Seconds t_end) {
  lanes_.finish(trace, t_end);
}

}  // namespace ssamr::sim
