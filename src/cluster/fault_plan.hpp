#pragma once
/// \file fault_plan.hpp
/// Deterministic, seeded fault injection for the simulated cluster.
///
/// The paper's premise is that clusters are dynamically loaded *and*
/// unreliable: NWS probes cost ~0.5 s per node, can time out or return
/// stale data, and nodes come and go.  A FaultPlan scripts exactly that,
/// in virtual time and fully reproducibly: scripted episodes (probe
/// timeout / dropout windows, stale-reading windows, transient node
/// crash/rejoin episodes) plus seeded per-attempt probe failures drawn
/// from a counter-based hash, so the outcome of attempt k on node r is a
/// pure function of (seed, rank, attempt) — independent of call order and
/// thread count.
///
/// A Cluster (cluster.hpp) holds one plan.  A default-constructed plan is
/// empty: no episodes and zero rates, so every probe answers and no node
/// is ever down.

#include <cstdint>
#include <vector>

#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// What one probe attempt experiences.
enum class ProbeFault : std::uint8_t {
  kNone,     ///< the probe answers normally
  kTimeout,  ///< no answer within the deadline (costs the full deadline)
  kDrop,     ///< fast failure (connection refused, costs one probe)
  kStale,    ///< an answer arrives but reflects an earlier system state
};

/// Kinds of scripted fault episodes.
enum class FaultKind : std::uint8_t {
  kProbeTimeout,  ///< probes of the node time out during the window
  kProbeDrop,     ///< probes of the node fail fast during the window
  kStaleWindow,   ///< probes answer with readings frozen at the window start
  kCrash,         ///< node down: probes fail and the node does no work
};

/// One scripted fault episode on one node over a virtual-time window.
struct FaultEpisode {
  rank_t rank = 0;
  FaultKind kind = FaultKind::kProbeTimeout;
  Seconds t0{0};       ///< window start (inclusive)
  Seconds t1{1.0e30};  ///< window end (exclusive)
};

/// Rates and episode counts for the scripted() factory.
struct FaultProfile {
  /// Per-attempt probability that a probe times out (counter-hashed).
  real_t probe_timeout_rate = 0;
  /// Per-attempt probability that a probe fails fast (counter-hashed).
  real_t probe_drop_rate = 0;
  /// Number of stale-reading windows scattered over nodes and time.
  int stale_windows = 0;
  /// Number of transient crash/rejoin episodes scattered over nodes.
  int crash_episodes = 0;
};

/// A deterministic fault script for one cluster.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Per-attempt random fault rates (on top of scripted episodes).
  real_t probe_timeout_rate = 0;
  real_t probe_drop_rate = 0;
  std::uint64_t seed = 0x5eedfa17ULL;

  /// Add one scripted episode.
  void add(const FaultEpisode& e);

  const std::vector<FaultEpisode>& episodes() const { return episodes_; }

  /// Outcome of probe attempt number `attempt` (a per-(node, monitor)
  /// counter) against node `rank` at virtual time t.  Scripted episodes
  /// win over random draws; crash episodes answer kTimeout (the node is
  /// unreachable).
  ProbeFault probe_fault(rank_t rank, Seconds t,
                         std::uint64_t attempt) const;

  /// True while a crash episode covers (rank, t): the node does no work
  /// and delivers no bandwidth.
  bool node_down(rank_t rank, Seconds t) const;

  /// The virtual time at which the node is next up: t itself when no crash
  /// episode covers (rank, t), else the end of the covering episode(s) —
  /// chained/overlapping episodes are followed through.
  Seconds resume_time(rank_t rank, Seconds t) const;

  /// The virtual time a probe answer at time t actually reflects: the
  /// start of the covering stale window, or t when none covers.
  Seconds observable_time(rank_t rank, Seconds t) const;

  /// Seeded random plan: per-attempt timeout/drop rates plus scripted
  /// stale windows and crash/rejoin episodes, each lasting 12 % of the
  /// virtual-time horizon, scattered over `nodes` nodes and the horizon.
  /// Equal inputs yield identical plans.
  static FaultPlan scripted(int nodes, Seconds horizon,
                            const FaultProfile& profile, std::uint64_t seed);

 private:
  std::vector<FaultEpisode> episodes_;
};

}  // namespace ssamr
