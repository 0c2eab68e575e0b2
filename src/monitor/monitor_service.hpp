#pragma once
/// \file monitor_service.hpp
/// The resource-monitoring facade (the paper's "Resource Monitoring Tool",
/// played by NWS on the real cluster).
///
/// The service measures each node (sensor.hpp), keeps per-node, per-resource
/// measurement histories, and answers queries with NWS-style forecasts
/// (forecaster.hpp).  Querying is not free: the paper measures "the
/// overhead of probing NWS on a node, retrieving its system state, and
/// computing its relative capacity" at about 0.5 seconds — the service
/// accounts that cost so the runtime can charge it to execution time.
///
/// Probes can fail.  When the cluster carries a FaultPlan
/// (cluster/fault_plan.hpp), a probe may time out (costing the full
/// per-probe deadline), fail fast, or answer with stale readings.  The
/// monitor retries with bounded exponential backoff; when every attempt
/// fails it falls back to the last-known-good reading decayed toward the
/// cluster mean, and nodes that fail two consecutive sweeps are
/// quarantined — reported at zero capacity and probed with a single
/// attempt (no retry budget) until a probe succeeds again, at which point
/// they are re-admitted.  The retry, backoff, quarantine and decay values
/// are constants of this fault policy (monitor_service.cpp).  Every sweep
/// takes this one retry loop; under the default (empty) fault plan every
/// probe answers on its first attempt, so a sweep costs probe_cost_s per
/// node.

#include <cstdint>
#include <vector>

#include "capacity/resource_estimate.hpp"
#include "cluster/cluster.hpp"
#include "monitor/forecaster.hpp"
#include "monitor/probe_health.hpp"
#include "monitor/sensor.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// How one probe (after retries) ended.
enum class ProbeStatus : std::uint8_t {
  kOk,       ///< a fresh measurement was obtained
  kStale,    ///< the node answered with readings from an earlier time
  kTimeout,  ///< every attempt timed out; estimate is a decayed fallback
  kFailed,   ///< every attempt failed fast; estimate is a decayed fallback
};

/// Seconds after which an unanswered probe counts as timed out (each
/// timed-out attempt costs this much virtual time).
inline constexpr Seconds kProbeDeadline{2.0};

/// One probe of one node: status, the estimate to use, and what it cost.
struct ProbeOutcome {
  ProbeStatus status = ProbeStatus::kOk;
  ResourceEstimate estimate;
  /// Probe attempts issued (1 = the first try answered).
  int attempts = 1;
  /// Virtual-time cost of the probe including timeouts, retries and
  /// backoff waits.  Equals MonitorConfig::probe_cost_s when the first
  /// attempt succeeds.
  Seconds elapsed_s{0};
};

/// One full probe sweep: the per-node estimates plus what the sweep cost
/// and how healthy it was.
struct SweepResult {
  std::vector<ResourceEstimate> estimates;
  /// Virtual-time cost of the sweep: its probes' elapsed_s summed in rank
  /// order (probe_cost_s per node when no probe faulted).
  Seconds overhead_s{0};
  /// Probe-health tallies of this sweep.
  int ok = 0;
  int stale = 0;
  int timeouts = 0;
  int failures = 0;
  /// Nodes newly quarantined / re-admitted by this sweep.
  std::vector<rank_t> quarantined;
  std::vector<rank_t> readmitted;

  /// True when this sweep changed any node's quarantine state — the
  /// runtime forces a repartition on such events.
  bool health_event() const {
    return !quarantined.empty() || !readmitted.empty();
  }
};

/// Monitor configuration.
struct MonitorConfig {
  SensorNoise noise;
  /// Seconds charged per node probed (paper: ≈ 0.5 s per node); at most
  /// kProbeDeadline.
  Seconds probe_cost_s{0.5};
  std::uint64_t seed = 42;
};

/// The monitoring service for one cluster.
class ResourceMonitor {
 public:
  ResourceMonitor(const Cluster& cluster, MonitorConfig cfg);

  /// Probe one node at virtual time t: take a measurement (retrying on
  /// faults), extend the history, and report the outcome: status, the
  /// forecasted (or fallback) estimate, attempts and cost.
  ProbeOutcome probe_outcome(rank_t rank, Seconds t);

  /// Probe every node and report the sweep's virtual-time cost, health
  /// tallies and quarantine transitions alongside the estimates.  Each
  /// sweep's tallies are also folded into the health ledger.
  SweepResult probe_all(Seconds t);

  /// Running probe-health totals across all sweeps of this monitor's
  /// lifetime — the shared state between the monitor (writing on the
  /// sensing lane) and the runtime (reading when a trace is finalized).
  HealthLedger& health() { return health_; }
  const HealthLedger& health() const { return health_; }

  /// Number of probes issued so far (all nodes, successful or not).
  std::size_t probe_count() const { return probe_count_; }

  /// True while `rank` is quarantined (capacity reported as zero).
  bool quarantined(rank_t rank) const;

  /// Consecutive failed probes of `rank` (0 after any success).
  int fail_streak(rank_t rank) const;

  /// Measurement history of one node's CPU availability (test access).
  const std::vector<real_t>& cpu_history(rank_t rank) const;

 private:
  /// Take a fresh measurement of `rank` as of virtual time t_obs, extend
  /// the history, and record the result as last-known-good.
  ResourceEstimate fresh_probe(rank_t rank, Seconds t_obs);
  /// Mean of the last-known-good estimates over non-quarantined nodes
  /// (the decay target of the staleness fallback).
  ResourceEstimate known_good_mean() const;
  std::size_t index_of(rank_t rank) const;

  const Cluster& cluster_;
  MonitorConfig cfg_;
  Sensor sensor_;
  AdaptiveForecaster forecaster_;
  std::vector<std::vector<real_t>> cpu_hist_;
  std::vector<std::vector<real_t>> mem_hist_;
  std::vector<std::vector<real_t>> bw_hist_;
  /// Fault-tolerance state, one slot per node.
  std::vector<ResourceEstimate> last_good_;
  std::vector<Seconds> last_good_time_;
  std::vector<char> has_good_;
  std::vector<int> fail_streak_;
  std::vector<char> quarantined_;
  std::vector<std::uint64_t> attempt_counter_;
  std::size_t probe_count_ = 0;
  HealthLedger health_;
};

}  // namespace ssamr
