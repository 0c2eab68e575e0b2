#include "partition/grace_default.hpp"

namespace ssamr {

GraceDefaultPartitioner::GraceDefaultPartitioner(
    SfcConfig sfc, PartitionConstraints constraints)
    : walk_(sfc, /*shard_count=*/1, constraints) {}

PartitionResult GraceDefaultPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  // Equal work per processor — capacity values deliberately ignored (the
  // baseline assumes homogeneity).
  return walk_.partition(
      boxes, std::vector<real_t>(capacities.size(), real_t{1}), work);
}

}  // namespace ssamr
