#pragma once
/// \file partition_audit.hpp
/// Invariant audit of one partitioning pass against its input.

#include <vector>

#include "amr/workload.hpp"
#include "geom/box_list.hpp"
#include "partition/partitioner.hpp"
#include "util/audit.hpp"
#include "util/types.hpp"

namespace ssamr::audit {

/// Audit one partitioning pass against its input: full coverage of every
/// input box by same-level pieces, no overlap among pieces, owners in
/// range, minimum box size and aspect-ratio bound for split pieces, work
/// bookkeeping identities, and capacity-proportional load tracking
/// (W_k vs L_k and L_k vs C_k · L, warnings).
AuditReport validate_partition(const BoxList& input,
                               const PartitionResult& result,
                               const std::vector<real_t>& capacities,
                               const WorkModel& work,
                               const PartitionConstraints& constraints =
                                   PartitionConstraints{});

}  // namespace ssamr::audit
