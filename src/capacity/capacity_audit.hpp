#pragma once
/// \file capacity_audit.hpp
/// Invariant audits of relative-capacity vectors (Eq. 1).
///
/// Free functions next to the data they check, like every other
/// *_audit.hpp, so the capacity layer can audit itself.

#include <vector>

#include "capacity/capacity.hpp"
#include "util/audit.hpp"
#include "util/types.hpp"

namespace ssamr::audit {

/// Audit a relative-capacity vector: non-empty, every C_k finite and in
/// [0, 1], and Σ C_k = 1 within tolerance (Eq. 1).
AuditReport validate_capacities(const std::vector<real_t>& capacities);

/// As above, plus the Eq. 1 weight constraints (non-negative, sum 1).
AuditReport validate_capacities(const std::vector<real_t>& capacities,
                                const CapacityWeights& weights);

}  // namespace ssamr::audit
