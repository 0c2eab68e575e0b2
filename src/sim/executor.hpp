#pragma once
/// \file executor.hpp
/// The virtual-time cost core (DESIGN.md §2, substitution for the physical
/// cluster, and §6): the per-rank costs of one SAMR coarse timestep on the
/// simulated heterogeneous cluster, shared by every execution model.
///
/// Per coarse step:
///   T_step = max_k [ W_k / R_k(t) + T_comm,k(t) ]
/// where R_k(t) is node k's effective compute rate (peak · CPU availability
/// · (1 − monitor intrusion), degraded on memory over-commit) and T_comm,k
/// its ghost-exchange time.  Regridding, repartitioning, data migration and
/// sensing are charged separately by the runtime driver.

#include <vector>

#include "cluster/cluster.hpp"
#include "partition/metrics.hpp"
#include "partition/partitioner.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// Knobs of the proc backend (real forked rank processes;
/// sim/proc_model.hpp).  Struct fields, not a cost API: these map virtual
/// quantities onto wall-clock emulation budgets.
struct ProcOptions {
  /// Wall seconds of nanosleep per virtual second of modeled compute.
  /// The default compresses Table I-sized runs (hundreds of virtual
  /// seconds) into wall milliseconds per phase while staying far above
  /// scheduler quantum noise.
  double time_scale = 1e-3;
  /// Per-message deadline on every data-plane frame and phase exchange.
  double frame_timeout_s = 30.0;

  /// The sanctioned normalization seam between measured wall clock and the
  /// virtual timeline: every wall measurement that feeds a RankTimeline,
  /// RunTrace or CSV column must pass through here (the determinism-taint
  /// lint rule keys on this name), so the only way real time enters a
  /// golden-pinned artifact is already divided by time_scale.  The raw
  /// double parameter is the point: measured wall seconds are untyped
  /// until this conversion stamps them as virtual Seconds.
  // ssamr-lint: allow(raw-double-cost-api)
  Seconds to_virtual(double wall_s) const {
    return Seconds{wall_s / time_scale};
  }
};

/// Cost-model knobs.  The regrid, partitioner and monitor-intrusion
/// prices are constants of executor.cpp, and every stored value (ghost,
/// migrated or resident) is one real_t.
struct ExecutorConfig {
  /// Application base memory footprint per rank.
  MegaBytes app_base_memory_mb{24.0};
  /// Field components (for ghost/migration byte counts).
  int ncomp = 5;
  /// Ghost width (for comm volume).
  coord_t ghost = 2;
  /// Time levels held in memory.
  int time_levels = 2;
  /// Fraction of ghost-exchange time hidden behind interior computation
  /// (SAMR runtimes post asynchronous sends while updating the interior).
  Fraction comm_overlap{0.7};
  /// Proc-backend knobs (ignored by the bsp/event models).
  ProcOptions proc;
};

/// Computes virtual-time costs of executing a partitioned SAMR hierarchy:
/// the one cost core the bsp, event and proc models share.  Each fact they
/// all price — a partition's ghost flows, a rank's rejoin-time bandwidth,
/// its incident bytes, the time to exchange them, the regrid charge — has
/// exactly one path here.
///
/// Threading: ghost_flows() refills a mutable cache, so one executor is
/// driven by one thread at a time (every model owns its own), like
/// SfcKeyIndex's query statistics.  The pool work inside compute_times()
/// only reads.
class VirtualExecutor {
 public:
  VirtualExecutor(const Cluster& cluster, ExecutorConfig cfg);

  /// Per-rank compute time of one iteration at time t (test access).
  std::vector<Seconds> compute_times(const PartitionResult& r,
                                     Seconds t) const;

  /// Per-rank visible communication time of one iteration at time t: the
  /// rank's ghost bytes exchanged at its rejoin-time bandwidth, of which
  /// (1 − comm_overlap) is not hidden behind computation.
  std::vector<Seconds> comm_times(const PartitionResult& r, Seconds t) const;

  /// The ghost flows of `r` (partition/metrics.hpp).  The flow set is a pure
  /// function of the partition, which is stable between regrids, so
  /// neighbor discovery reruns only when `r` differs bit-exactly from the
  /// previous call's partition, not once per iteration.  Valid until the
  /// next call with a different partition.
  const std::vector<RankFlow>& ghost_flows(const PartitionResult& r) const;

  /// Deliverable bandwidth of every rank at virtual time t.  A crashed
  /// node is priced at its rejoin-time bandwidth: the compute side already
  /// charges the crash pause, so the down-state bandwidth floor would
  /// double-charge the outage as absurd transfer times.
  std::vector<MbitsPerSec> bandwidths_at(Seconds t) const;

  /// Charge of one regrid event over `boxes` composite boxes: the regrid
  /// (flagging + clustering: a fixed base plus a per-box term) and then
  /// the partitioner (per box).
  Seconds regrid_cost(std::size_t boxes) const;

  /// Time to migrate data between two assignments (cells whose owner
  /// changed, slowest-rank transfer under current bandwidths at time t).
  /// `previous` may be empty (initial distribution: charged as a scatter
  /// from rank 0).
  Seconds migration_time(const PartitionResult& previous,
                         const PartitionResult& next, Seconds t) const;

  /// Directed per-pair migration traffic from `previous` to `next`
  /// ownership, sorted by (src, dst) with zero flows omitted (`previous`
  /// empty = initial scatter from rank 0).  The flows incident to a rank
  /// sum to the bytes it sends and receives.
  std::vector<RankFlow> migration_flows(const PartitionResult& previous,
                                        const PartitionResult& next) const;

  const ExecutorConfig& config() const { return cfg_; }

 private:
  /// Memory demand of a rank holding `cells` resident cells: the
  /// application base plus every component at every time level.
  MegaBytes memory_from_cells(std::int64_t cells) const;

  /// Per-rank time to exchange every byte of `flows` incident to the rank
  /// at its bandwidth of time t.
  std::vector<Seconds> exchange_times(const std::vector<RankFlow>& flows,
                                      Seconds t) const;

  const Cluster& cluster_;
  ExecutorConfig cfg_;
  // ghost_flows() cache: the last partition seen and its flows.  It starts
  // as the empty partition, whose flow list is empty, so it is never stale.
  mutable PartitionResult flows_key_;
  mutable std::vector<RankFlow> flows_;
};

}  // namespace ssamr
