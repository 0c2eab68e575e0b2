#pragma once
/// \file executor.hpp
/// The virtual-time execution model (DESIGN.md §2, substitution for the
/// physical cluster): BSP accounting of one SAMR coarse timestep on the
/// simulated heterogeneous cluster.
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
  /// Wire bytes actually shipped per modeled byte of ghost/migration
  /// traffic (1.0 = byte-for-byte over the sockets).
  double bytes_scale = 1.0;
  /// Per-message deadline on every data-plane frame and phase exchange.
  double frame_timeout_s = 30.0;
  /// Use loopback TCP instead of AF_UNIX socketpairs.
  bool use_tcp = false;

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

/// Computes virtual-time costs of executing a partitioned SAMR hierarchy.
class VirtualExecutor {
 public:
  VirtualExecutor(const Cluster& cluster, ExecutorConfig cfg);

  /// Per-rank compute time of one iteration at time t (test access).
  std::vector<Seconds> compute_times(const PartitionResult& r,
                                     Seconds t) const;

  /// Per-rank raw (un-overlapped) communication time of one iteration.
  std::vector<Seconds> comm_times(const PartitionResult& r, Seconds t) const;

  /// Per-rank communication time after overlap with computation:
  /// (1 − comm_overlap) · raw.
  std::vector<Seconds> effective_comm_times(const PartitionResult& r,
                                            Seconds t) const;

  /// Cost of a regrid event for a composite list of `boxes` boxes.
  Seconds regrid_time(std::size_t boxes) const;

  /// Cost of running the partitioner on `boxes` boxes.
  Seconds partition_time(std::size_t boxes) const;

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

  const Cluster& cluster_;
  ExecutorConfig cfg_;
};

/// The ghost flows (pairwise_comm_bytes) of the last partition seen.  The
/// flow set is a pure function of the partition, which is stable between
/// regrids, so neighbor discovery reruns only when the assignment changes
/// (bit-exact comparison), not once per iteration.
class GhostFlowCache {
 public:
  const std::vector<RankFlow>& flows(const PartitionResult& r,
                                     const ExecutorConfig& cfg);

 private:
  PartitionResult key_;
  std::vector<RankFlow> flows_;
  bool valid_ = false;
};

}  // namespace ssamr
