#pragma once
/// \file cluster.hpp
/// The simulated heterogeneous cluster: node specs, per-node load scripts,
/// and true resource state as a function of virtual time.
///
/// This substitutes for the paper's physical 32-node Linux cluster (see
/// DESIGN.md §2): everything the partitioning framework can observe about
/// the machine — CPU availability, free memory, deliverable bandwidth —
/// is defined here, deterministically.

#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/load_generator.hpp"
#include "cluster/network.hpp"
#include "cluster/node.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// A heterogeneous, dynamically loaded cluster.
class Cluster {
 public:
  /// Build a cluster of the given nodes with idle load scripts.
  explicit Cluster(std::vector<NodeSpec> nodes,
                   NetworkModel network = NetworkModel{});

  /// Number of nodes.
  int size() const { return static_cast<int>(nodes_.size()); }

  const NodeSpec& spec(rank_t rank) const;
  const NetworkModel& network() const { return network_; }

  /// Attach (append) a load generator to one node.
  void add_load(rank_t rank, const LoadRamp& ramp);

  /// Replace the fault plan (probe faults, stale windows, crash episodes).
  /// The default plan is empty: the cluster is fault-free.
  void set_fault_plan(FaultPlan plan);

  /// The cluster's fault plan.
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// The virtual time at which the node is next up: t itself when the node
  /// is up (always, under the empty plan), else the rejoin time of the
  /// covering crash episode(s).  Execution models price work on a crashed
  /// node as a pause until this time, not as progress at the availability
  /// floor.
  Seconds resume_time(rank_t rank, Seconds t) const;

  /// True resource state of a node at virtual time t.  During a crash
  /// episode the node is down: no CPU, no free memory, and only the
  /// bandwidth floor (in-flight messages stall rather than vanish).
  NodeState state_at(rank_t rank, Seconds t) const;

  /// Effective application compute rate (work units/second) of a node at
  /// time t: peak_rate · cpu_available, degraded when the application's
  /// memory need exceeds free memory (paging penalty).
  /// \param memory_demand_mb memory the application needs on this node
  WorkRate effective_rate(rank_t rank, Seconds t,
                           MegaBytes memory_demand_mb = MegaBytes{0}) const;

  // ---- factory helpers used by experiments -------------------------------

  /// A uniform cluster of n identical nodes.
  static Cluster homogeneous(int n, const NodeSpec& spec = NodeSpec{});

  /// A cluster whose node peak rates follow a repeating pattern of
  /// multipliers (e.g. {1.0, 0.75, 1.5, 1.25}) over a base spec — a simple
  /// way to express hardware heterogeneity.
  static Cluster heterogeneous(int n, const std::vector<real_t>& multipliers,
                               const NodeSpec& base = NodeSpec{});

 private:
  void check_rank(rank_t rank) const;
  std::vector<NodeSpec> nodes_;
  std::vector<LoadScript> loads_;
  NetworkModel network_;
  FaultPlan fault_plan_;
};

}  // namespace ssamr
