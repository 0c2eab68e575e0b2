#pragma once
/// \file cluster_audit.hpp
/// Invariant audits of node specs/states and whole-cluster snapshots.

#include <string>

#include "cluster/cluster.hpp"
#include "cluster/node.hpp"
#include "util/audit.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr::audit {

/// Audit one node's spec and instantaneous state: positive peak rate,
/// availability in [0, 1], free memory within [0, spec memory],
/// deliverable bandwidth positive and within the link capacity.
AuditReport validate_node_state(const NodeSpec& spec, const NodeState& state,
                                const std::string& location);

/// Audit the whole cluster's true state at virtual time t.
AuditReport validate_cluster(const Cluster& cluster, Seconds t);

}  // namespace ssamr::audit
