#include "capacity/capacity_audit.hpp"

#include <cmath>
#include <string>

namespace ssamr::audit {

namespace {
std::string rank_loc(std::size_t k) { return "rank " + std::to_string(k); }
}  // namespace

AuditReport validate_capacities(const std::vector<real_t>& capacities) {
  AuditReport r("capacities");
  if (capacities.empty()) {
    r.add(Severity::Error, "capacity.size", "", "capacity vector is empty");
    return r;
  }
  real_t sum = 0;
  for (std::size_t k = 0; k < capacities.size(); ++k) {
    const real_t c = capacities[k];
    if (!std::isfinite(c) || c < -kCapacityTolerance ||
        c > 1 + kCapacityTolerance)
      r.add(Severity::Error, "capacity.range", rank_loc(k),
            "C_k = " + std::to_string(c) + " outside [0, 1]");
    else
      sum += c;
  }
  if (r.ok() && std::abs(sum - 1) > kCapacityTolerance)
    r.add(Severity::Error, "capacity.normalization", "",
          "capacities sum to " + std::to_string(sum) +
              ", Eq. 1 requires 1");
  return r;
}

AuditReport validate_capacities(const std::vector<real_t>& capacities,
                                const CapacityWeights& weights) {
  AuditReport r = validate_capacities(capacities);
  if (!weights.valid())
    r.add(Severity::Error, "capacity.weights", "",
          "weights (" + std::to_string(weights.cpu) + ", " +
              std::to_string(weights.memory) + ", " +
              std::to_string(weights.bandwidth) +
              ") must be non-negative and sum to 1");
  return r;
}

}  // namespace ssamr::audit
