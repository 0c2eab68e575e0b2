#include "sim/event_executor.hpp"

#include <algorithm>

#include "partition/metrics.hpp"
#include "sim/message_sim.hpp"
#include "util/error.hpp"

namespace ssamr::sim {

EventExecutor::EventExecutor(const Cluster& cluster,
                             const ExecutorConfig& cfg, SpanLog log)
    : cluster_(cluster), exec_(cluster, cfg), lanes_(cluster.size(), log) {}

std::vector<MbitsPerSec> EventExecutor::bandwidths_at(Seconds t) const {
  const auto n = static_cast<std::size_t>(cluster_.size());
  std::vector<MbitsPerSec> bw(n, MbitsPerSec{0});
  for (std::size_t k = 0; k < n; ++k) {
    // Crashed nodes are priced at their rejoin-time bandwidth: the compute
    // lane charges the crash pause, so pricing transfers at the down-state
    // bandwidth floor would double-charge the outage.
    const auto rank = static_cast<rank_t>(k);
    bw[k] = cluster_.state_at(rank, cluster_.resume_time(rank, t))
                .bandwidth_mbps;
  }
  return bw;
}

void EventExecutor::run_network(std::vector<Transfer>& transfers, Seconds t) {
  const std::vector<MbitsPerSec> bw = bandwidths_at(t);
  events_ += simulate_transfers(transfers, bw, cluster_.network(), net_ws_);
}

Seconds EventExecutor::sense(Seconds t, Seconds sweep_s, int iteration) {
  // The sweep occupies the monitor lane only: sensing overlaps execution.
  // The driver is charged only when the monitor is still busy with the
  // previous sweep — it blocks until its request can start, so degraded
  // sweeps (timeouts, retries, backoff) surface as sensing lag instead of
  // silently queueing forever on the monitor lane.
  RankTimeline& monitor = lanes_.monitor();
  const Seconds wait = std::max(Seconds{0}, monitor.now() - t);
  monitor.skip_to(std::max(monitor.now(), t));
  monitor.advance(monitor.now() + sweep_s, SpanKind::kSense, iteration);
  return wait;
}

Seconds EventExecutor::regrid(Seconds t, std::size_t boxes, int iteration) {
  // Global barrier: every rank synchronizes (idle), then all perform the
  // flagging/clustering/partitioning work together.
  const Seconds cost = exec_.regrid_time(boxes) + exec_.partition_time(boxes);
  const Seconds barrier = std::max(t, lanes_.horizon());
  for (std::size_t k = 0; k < lanes_.nranks(); ++k) {
    lanes_.rank(k).advance(barrier, SpanKind::kIdle, iteration);
    lanes_.rank(k).advance(barrier + cost, SpanKind::kRegrid, iteration);
  }
  return (barrier + cost) - t;
}

Seconds EventExecutor::migrate(const PartitionResult& previous,
                               const PartitionResult& next, Seconds t) {
  // Ranks leave the regrid barrier together; each resumes as soon as its
  // own incident transfers are done (no second barrier).
  const Seconds begin = lanes_.horizon();
  std::vector<RankFlow> flows = exec_.migration_flows(previous, next);
  if (flows.empty()) return Seconds{0};

  std::vector<Transfer> transfers;
  transfers.reserve(flows.size());
  for (const RankFlow& f : flows)
    transfers.push_back(
        Transfer{f.src, f.dst, Bytes{f.bytes}, begin, Seconds{0}});
  run_network(transfers, t);

  const auto n = static_cast<std::size_t>(cluster_.size());
  std::vector<Seconds> done(n, begin);
  for (const Transfer& tr : transfers) {
    done[static_cast<std::size_t>(tr.src)] =
        std::max(done[static_cast<std::size_t>(tr.src)], tr.finish_time);
    done[static_cast<std::size_t>(tr.dst)] =
        std::max(done[static_cast<std::size_t>(tr.dst)], tr.finish_time);
  }
  for (std::size_t k = 0; k < n; ++k)
    lanes_.rank(k).advance(done[k], SpanKind::kMigrate);
  return lanes_.horizon() - begin;
}

StepCost EventExecutor::advance(const PartitionResult& r, Seconds t,
                                int iteration) {
  const auto n = static_cast<std::size_t>(cluster_.size());
  const std::vector<Seconds> comp = exec_.compute_times(r, t);
  SSAMR_REQUIRE(comp.size() == n, "partition arity must match cluster size");

  // Compute spans start at each rank's own clock (asynchronous steps).
  std::vector<Seconds> compute_start(n, Seconds{0});
  std::vector<Seconds> compute_end(n, Seconds{0});
  for (std::size_t k = 0; k < n; ++k) {
    RankTimeline& lane = lanes_.rank(k);
    compute_start[k] = lane.now();
    lane.advance(lane.now() + comp[k], SpanKind::kCompute, iteration);
    compute_end[k] = lane.now();
  }

  // Ghost exchange: SAMR runtimes update boundary regions first and post
  // asynchronous sends while the interior computes, so a producer's ghost
  // data leaves after the non-overlappable fraction of its compute —
  // comm_overlap = 0 posts at compute end, 1 at compute start.  The
  // receiving rank still needs all its incoming messages before its next
  // span.  Transfers contend for endpoint bandwidth.
  const real_t overlap = exec_.config().comm_overlap.value();
  const std::vector<RankFlow>& flows = ghost_flows_.flows(r, exec_.config());
  std::vector<Transfer>& transfers = transfer_buf_;
  transfers.clear();
  transfers.reserve(flows.size());
  for (const RankFlow& f : flows) {
    const auto s = static_cast<std::size_t>(f.src);
    const Seconds post = compute_start[s] + (1.0 - overlap) * comp[s];
    transfers.push_back(
        Transfer{f.src, f.dst, Bytes{f.bytes}, post, Seconds{0}});
  }
  run_network(transfers, t);

  std::vector<Seconds> ready(compute_end);
  for (const Transfer& tr : transfers)
    ready[static_cast<std::size_t>(tr.dst)] =
        std::max(ready[static_cast<std::size_t>(tr.dst)], tr.finish_time);
  for (std::size_t k = 0; k < n; ++k)
    lanes_.rank(k).advance(ready[k], SpanKind::kComm, iteration);

  // Attribute the global advance to the critical rank's breakdown.
  std::size_t crit = 0;
  for (std::size_t k = 1; k < n; ++k)
    if (ready[k] > ready[crit]) crit = k;
  const Seconds elapsed = ready[crit] - t;
  const Seconds compute = std::min(comp[crit], elapsed);
  return StepCost{elapsed, compute, elapsed - compute};
}

void EventExecutor::finish(RunTrace& trace, Seconds t_end) {
  lanes_.finish(trace, t_end);
}

}  // namespace ssamr::sim
