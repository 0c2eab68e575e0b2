#include "cluster/cluster_audit.hpp"

#include <algorithm>
#include <cmath>

namespace ssamr::audit {

AuditReport validate_node_state(const NodeSpec& spec, const NodeState& state,
                                const std::string& location) {
  AuditReport r("cluster");
  const real_t tol = kCapacityTolerance;
  if (!(spec.peak_rate > WorkRate{0}) || !(spec.memory_mb > MegaBytes{0}) ||
      !(spec.bandwidth_mbps > MbitsPerSec{0}))
    r.add(Severity::Error, "cluster.spec", location,
          "node spec has non-positive peak rate, memory or bandwidth");
  if (!std::isfinite(state.cpu_available.value()) ||
      state.cpu_available < Fraction{-tol} ||
      state.cpu_available > Fraction{1 + tol})
    r.add(Severity::Error, "cluster.availability", location,
          "cpu availability " + std::to_string(state.cpu_available.value()) +
              " outside [0, 1]");
  if (!std::isfinite(state.memory_free_mb.value()) ||
      state.memory_free_mb < MegaBytes{-tol} ||
      state.memory_free_mb > spec.memory_mb + MegaBytes{tol})
    r.add(Severity::Error, "cluster.memory", location,
          "free memory " + std::to_string(state.memory_free_mb.value()) +
              " outside [0, " + std::to_string(spec.memory_mb.value()) + "]");
  // The network model never reports below 1 Mbit/s, so links slower than
  // that legitimately "exceed" their spec by the clamp amount.
  const MbitsPerSec bw_cap = std::max(spec.bandwidth_mbps, MbitsPerSec{1});
  if (!std::isfinite(state.bandwidth_mbps.value()) ||
      !(state.bandwidth_mbps > MbitsPerSec{0}) ||
      state.bandwidth_mbps > bw_cap + MbitsPerSec{tol})
    r.add(Severity::Error, "cluster.bandwidth", location,
          "bandwidth " + std::to_string(state.bandwidth_mbps.value()) +
              " outside (0, " + std::to_string(bw_cap.value()) + "]");
  return r;
}

AuditReport validate_cluster(const Cluster& cluster, Seconds t) {
  AuditReport r("cluster");
  for (rank_t k = 0; k < cluster.size(); ++k)
    r.merge(validate_node_state(cluster.spec(k), cluster.state_at(k, t),
                                "rank " + std::to_string(k) +
                                    " at t=" + std::to_string(t.value())));
  return r;
}

}  // namespace ssamr::audit
