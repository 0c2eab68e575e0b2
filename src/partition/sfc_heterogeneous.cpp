#include "partition/sfc_heterogeneous.hpp"

#include <numeric>

namespace ssamr {

SfcHeterogeneousPartitioner::SfcHeterogeneousPartitioner(
    SfcConfig sfc, PartitionConstraints constraints)
    : sfc_(sfc), constraints_(constraints) {}

PartitionResult SfcHeterogeneousPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);
  const std::size_t nproc = capacities.size();

  // Composite SFC order (locality), capacity-proportional targets; the
  // works summed left from 0 are total_work bit for bit.
  const auto perm = sfc_order(boxes.boxes(), sfc_);
  const std::vector<real_t> works = per_box_work(boxes, work);
  const std::vector<real_t> targets = capacity_targets(
      std::accumulate(works.begin(), works.end(), real_t{0}), capacities,
      cap_sum);
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});

  return assign_sequence(boxes, works, perm, targets, proc_order, work,
                         constraints_);
}

}  // namespace ssamr
