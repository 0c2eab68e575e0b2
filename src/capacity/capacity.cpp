#include "capacity/capacity.hpp"

#include <cmath>

#include "capacity/capacity_audit.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"

namespace ssamr {

bool CapacityWeights::valid() const {
  if (cpu < 0 || memory < 0 || bandwidth < 0) return false;
  return std::abs(cpu + memory + bandwidth - 1.0) < 1e-9;
}

CapacityCalculator::CapacityCalculator(CapacityWeights weights)
    : weights_(weights) {
  SSAMR_REQUIRE(weights_.valid(),
                "capacity weights must be non-negative and sum to 1");
}

std::vector<real_t> CapacityCalculator::relative_capacities(
    const std::vector<ResourceEstimate>& estimates) const {
  SSAMR_REQUIRE(!estimates.empty(), "need at least one node estimate");
  const auto n = estimates.size();
  real_t cpu_total = 0, mem_total = 0, bw_total = 0;
  for (const auto& e : estimates) {
    SSAMR_REQUIRE(std::isfinite(e.cpu_available.value()) &&
                      std::isfinite(e.memory_free_mb.value()) &&
                      std::isfinite(e.bandwidth_mbps.value()),
                  "resource estimates must be finite");
    SSAMR_REQUIRE(e.cpu_available >= Fraction{0} &&
                      e.memory_free_mb >= MegaBytes{0} &&
                      e.bandwidth_mbps >= MbitsPerSec{0},
                  "resource estimates must be non-negative");
    cpu_total += e.cpu_available.value();
    mem_total += e.memory_free_mb.value();
    bw_total += e.bandwidth_mbps.value();
  }

  std::vector<real_t> cap(n, 0);
  real_t sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const real_t p_hat =
        cpu_total > 0 ? estimates[k].cpu_available.value() / cpu_total : 0;
    const real_t m_hat =
        mem_total > 0 ? estimates[k].memory_free_mb.value() / mem_total : 0;
    const real_t b_hat =
        bw_total > 0 ? estimates[k].bandwidth_mbps.value() / bw_total : 0;
    cap[k] = weights_.cpu * p_hat + weights_.memory * m_hat +
             weights_.bandwidth * b_hat;
    sum += cap[k];
  }
  if (!(sum > 0)) {
    // Degenerate input (all resources zero — e.g. every node quarantined):
    // fall back to uniform.
    for (auto& c : cap) c = 1.0 / static_cast<real_t>(n);
    return cap;
  }
  // Renormalize: when a resource total is zero its column drops out, so the
  // weighted sum can fall short of 1.
  for (auto& c : cap) c /= sum;
  SSAMR_AUDIT(audit::validate_capacities(cap, weights_));
  return cap;
}

}  // namespace ssamr
