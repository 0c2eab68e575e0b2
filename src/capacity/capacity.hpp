#pragma once
/// \file capacity.hpp
/// The relative capacity metric (paper §5.2, Eq. 1).
///
/// For node k with estimated CPU availability P_k, free memory M_k and link
/// bandwidth B_k, each resource is first normalized to a fraction of the
/// cluster total, then combined as
///
///     C_k = w_p · P̂_k + w_m · M̂_k + w_b · B̂_k,   Σ C_k = 1
///
/// with application-dependent weights w_p + w_m + w_b = 1.  A total work L
/// is split as L_k = C_k · L.

#include <vector>

#include "capacity/resource_estimate.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// Application-dependent resource weights (must sum to 1).
struct CapacityWeights {
  real_t cpu = 1.0 / 3.0;
  real_t memory = 1.0 / 3.0;
  real_t bandwidth = 1.0 / 3.0;

  /// Validate: non-negative and summing to 1 (within tolerance).
  bool valid() const;

  /// Equal weights (the paper's experimental choice).
  static CapacityWeights equal() { return {}; }
  /// Weight profile for a CPU-bound application.
  static CapacityWeights cpu_bound() { return {0.8, 0.1, 0.1}; }
  /// Weight profile for a memory-intensive application.
  static CapacityWeights memory_bound() { return {0.2, 0.6, 0.2}; }
  /// Weight profile for a communication-heavy application.
  static CapacityWeights comm_bound() { return {0.3, 0.1, 0.6}; }
};

/// The capacity calculator of Figure 5.
class CapacityCalculator {
 public:
  explicit CapacityCalculator(CapacityWeights weights = {});

  const CapacityWeights& weights() const { return weights_; }

  /// Relative capacities C_k (Eq. 1) from per-node resource estimates.
  /// The result sums to 1 (all-zero estimates fall back to uniform).
  std::vector<real_t> relative_capacities(
      const std::vector<ResourceEstimate>& estimates) const;

 private:
  CapacityWeights weights_;
};

}  // namespace ssamr
