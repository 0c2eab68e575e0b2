#include "sim/executor.hpp"

#include <algorithm>

#include "sim/executor_audit.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

namespace {

/// Fixed regrid overhead per regrid event (flagging + clustering).
constexpr Seconds kRegridCostBase{0.05};
/// Additional regrid cost per composite box.
constexpr Seconds kRegridCostPerBox{0.002};
/// Partitioner cost per box (sorting + splitting).
constexpr Seconds kPartitionCostPerBox{0.0005};
/// CPU fraction stolen by the resource monitor on every node (NWS: < 3 %).
constexpr Fraction kMonitorIntrusionCpu{0.02};

/// Bytes each of `n` ranks sends plus receives over `flows`: one integer
/// pass over the flow list, so the per-rank totals do not depend on flow
/// order (flow endpoints are distinct ranks inside the cluster).
std::vector<std::int64_t> incident_bytes(const std::vector<RankFlow>& flows,
                                         std::size_t n) {
  std::vector<std::int64_t> incident(n, 0);
  for (const RankFlow& f : flows) {
    incident[static_cast<std::size_t>(f.src)] += f.bytes;
    incident[static_cast<std::size_t>(f.dst)] += f.bytes;
  }
  return incident;
}

}  // namespace

VirtualExecutor::VirtualExecutor(const Cluster& cluster, ExecutorConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  const audit::AuditReport report =
      audit::validate_executor_config(cfg);
  SSAMR_REQUIRE(report.ok(), report.summary());
}

MegaBytes VirtualExecutor::memory_from_cells(std::int64_t cells) const {
  const real_t bytes = static_cast<real_t>(cells) * cfg_.ncomp *
                       static_cast<real_t>(sizeof(real_t)) * cfg_.time_levels;
  return cfg_.app_base_memory_mb + MegaBytes{bytes / 1.0e6};
}

std::vector<Seconds> VirtualExecutor::compute_times(const PartitionResult& r,
                                                    Seconds t) const {
  const auto n = static_cast<std::size_t>(cluster_.size());
  SSAMR_REQUIRE(r.assigned_work.size() == n,
                "partition arity must match cluster size");
  // One O(|assignments|) pass scatters the resident cells to their ranks
  // (the historical per-rank rescans were O(N·P)); integer accumulation,
  // so the per-rank totals do not depend on assignment order.
  std::vector<std::int64_t> cells(n, 0);
  for (const BoxAssignment& a : r.assignments)
    if (a.owner >= 0 && static_cast<std::size_t>(a.owner) < n)
      cells[static_cast<std::size_t>(a.owner)] += a.box.cells();
  std::vector<Seconds> out(n, Seconds{0});
  ThreadPool::global().parallel_for(n, [&](std::size_t k) {
    const auto rank = static_cast<rank_t>(k);
    const MegaBytes mem = memory_from_cells(cells[k]);
    // A transiently crashed node pauses: work assigned to it waits out the
    // episode and resumes at rejoin rate, rather than "progressing" at the
    // availability floor (which would price one iteration at ~1000× its
    // real cost).  Without a fault plan resume == t and nothing changes.
    const Seconds resume = cluster_.resume_time(rank, t);
    WorkRate rate = cluster_.effective_rate(rank, resume, mem);
    rate *= (1.0 - kMonitorIntrusionCpu.value());
    out[k] = Work{r.assigned_work[k]} / std::max(rate, WorkRate{1e-9});
    if (r.assigned_work[k] > 0) out[k] += resume - t;
  });
  return out;
}

std::vector<Seconds> VirtualExecutor::comm_times(const PartitionResult& r,
                                                 Seconds t) const {
  SSAMR_REQUIRE(r.assigned_work.size() ==
                    static_cast<std::size_t>(cluster_.size()),
                "partition arity must match cluster size");
  std::vector<Seconds> comm = exchange_times(ghost_flows(r), t);
  const real_t visible = 1.0 - cfg_.comm_overlap.value();
  for (Seconds& c : comm) c *= visible;
  return comm;
}

const std::vector<RankFlow>& VirtualExecutor::ghost_flows(
    const PartitionResult& r) const {
  if (!(flows_key_ == r)) {
    flows_ = pairwise_comm_bytes(r, cfg_.ghost, cfg_.ncomp);
    flows_key_ = r;
  }
  return flows_;
}

std::vector<MbitsPerSec> VirtualExecutor::bandwidths_at(Seconds t) const {
  const auto n = static_cast<std::size_t>(cluster_.size());
  std::vector<MbitsPerSec> bw(n, MbitsPerSec{0});
  for (std::size_t k = 0; k < n; ++k) {
    const auto rank = static_cast<rank_t>(k);
    bw[k] = cluster_.state_at(rank, cluster_.resume_time(rank, t))
                .bandwidth_mbps;
  }
  return bw;
}

std::vector<Seconds> VirtualExecutor::exchange_times(
    const std::vector<RankFlow>& flows, Seconds t) const {
  const std::vector<std::int64_t> incident =
      incident_bytes(flows, static_cast<std::size_t>(cluster_.size()));
  const std::vector<MbitsPerSec> bw = bandwidths_at(t);
  std::vector<Seconds> out(incident.size(), Seconds{0});
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = cluster_.network().exchange_time(Bytes{incident[k]}, bw[k]);
  return out;
}

Seconds VirtualExecutor::regrid_cost(std::size_t boxes) const {
  const auto b = static_cast<real_t>(boxes);
  return (kRegridCostBase + kRegridCostPerBox * b) + kPartitionCostPerBox * b;
}

std::vector<RankFlow> VirtualExecutor::migration_flows(
    const PartitionResult& previous, const PartitionResult& next) const {
  const auto n = static_cast<std::size_t>(cluster_.size());
  const std::int64_t cell_bytes = static_cast<std::int64_t>(cfg_.ncomp) *
                                  static_cast<std::int64_t>(sizeof(real_t));
  std::vector<RankFlow> flows =
      ownership_transfer_flows(previous, next, cell_bytes);
  for (const RankFlow& f : flows)
    SSAMR_REQUIRE(f.src >= 0 && static_cast<std::size_t>(f.src) < n &&
                      f.dst >= 0 && static_cast<std::size_t>(f.dst) < n,
                  "owner out of range");
  return flows;
}

Seconds VirtualExecutor::migration_time(const PartitionResult& previous,
                                        const PartitionResult& next,
                                        Seconds t) const {
  Seconds worst{0};
  for (const Seconds s : exchange_times(migration_flows(previous, next), t))
    worst = std::max(worst, s);
  return worst;
}

}  // namespace ssamr
