#include "partition/grace_default.hpp"

#include <numeric>

#include "util/error.hpp"

namespace ssamr {

GraceDefaultPartitioner::GraceDefaultPartitioner(
    SfcConfig sfc, PartitionConstraints constraints)
    : sfc_(sfc), constraints_(constraints) {}

PartitionResult GraceDefaultPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  const std::size_t nproc = capacities.size();

  // Composite SFC order of the hierarchy.
  const auto perm = sfc_order(boxes.boxes(), sfc_);

  // Equal work per processor — capacities deliberately ignored (the
  // baseline assumes homogeneity).  Summing the works left from 0 is
  // total_work bit for bit.
  const std::vector<real_t> works = per_box_work(boxes, work);
  const real_t total = std::accumulate(works.begin(), works.end(), real_t{0});
  std::vector<real_t> targets(nproc, total / static_cast<real_t>(nproc));
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});

  return assign_sequence(boxes, works, perm, targets, proc_order, work,
                         constraints_);
}

}  // namespace ssamr
