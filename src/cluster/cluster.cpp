#include "cluster/cluster.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ssamr {

Cluster::Cluster(std::vector<NodeSpec> nodes, NetworkModel network)
    : nodes_(std::move(nodes)),
      loads_(nodes_.size()),
      network_(network) {
  SSAMR_REQUIRE(!nodes_.empty(), "cluster needs at least one node");
  network_.validate();
  for (const NodeSpec& n : nodes_) {
    SSAMR_REQUIRE(n.peak_rate > WorkRate{0},
                  "node peak rate must be positive");
    SSAMR_REQUIRE(n.memory_mb > MegaBytes{0}, "node memory must be positive");
    SSAMR_REQUIRE(n.bandwidth_mbps > MbitsPerSec{0},
                  "node bandwidth must be positive");
  }
}

void Cluster::check_rank(rank_t rank) const {
  SSAMR_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
}

const NodeSpec& Cluster::spec(rank_t rank) const {
  check_rank(rank);
  return nodes_[static_cast<std::size_t>(rank)];
}

void Cluster::add_load(rank_t rank, const LoadRamp& ramp) {
  check_rank(rank);
  loads_[static_cast<std::size_t>(rank)].add(ramp);
}

void Cluster::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
}

Seconds Cluster::resume_time(rank_t rank, Seconds t) const {
  check_rank(rank);
  return fault_plan_.resume_time(rank, t);
}

NodeState Cluster::state_at(rank_t rank, Seconds t) const {
  check_rank(rank);
  const NodeSpec& spec = nodes_[static_cast<std::size_t>(rank)];
  const LoadScript& load = loads_[static_cast<std::size_t>(rank)];
  if (fault_plan_.node_down(rank, t)) {
    NodeState down;
    down.cpu_available = Fraction{0};
    down.memory_free_mb = MegaBytes{0};
    down.bandwidth_mbps = NetworkModel::kMinBandwidthMbps;
    return down;
  }
  NodeState s;
  s.cpu_available = load.cpu_available_at(t);
  s.memory_free_mb =
      std::max(MegaBytes{0}, spec.memory_mb - load.memory_used_at(t));
  s.bandwidth_mbps =
      std::max(MbitsPerSec{1}, spec.bandwidth_mbps - load.traffic_at(t));
  return s;
}

WorkRate Cluster::effective_rate(rank_t rank, Seconds t,
                                 MegaBytes memory_demand_mb) const {
  const NodeState s = state_at(rank, t);
  const NodeSpec& spec = nodes_[static_cast<std::size_t>(rank)];
  WorkRate rate = spec.peak_rate * s.cpu_available;
  if (memory_demand_mb > s.memory_free_mb && memory_demand_mb > MegaBytes{0}) {
    // Paging penalty: throughput degrades with the over-commit factor.
    const real_t overcommit =
        memory_demand_mb / std::max(s.memory_free_mb, MegaBytes{1});
    rate /= (1.0 + 4.0 * (overcommit - 1.0));
  }
  return std::max(rate, spec.peak_rate * 1e-3);
}

Cluster Cluster::homogeneous(int n, const NodeSpec& spec) {
  SSAMR_REQUIRE(n >= 1, "cluster size must be >= 1");
  std::vector<NodeSpec> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NodeSpec s = spec;
    s.name = spec.name + "-" + std::to_string(i);
    nodes.push_back(std::move(s));
  }
  return Cluster(std::move(nodes));
}

Cluster Cluster::heterogeneous(int n, const std::vector<real_t>& multipliers,
                               const NodeSpec& base) {
  SSAMR_REQUIRE(n >= 1, "cluster size must be >= 1");
  SSAMR_REQUIRE(!multipliers.empty(), "need at least one multiplier");
  std::vector<NodeSpec> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NodeSpec s = base;
    s.name = base.name + "-" + std::to_string(i);
    s.peak_rate =
        base.peak_rate * multipliers[static_cast<std::size_t>(i) %
                                     multipliers.size()];
    nodes.push_back(std::move(s));
  }
  return Cluster(std::move(nodes));
}

}  // namespace ssamr
