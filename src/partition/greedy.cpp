#include "partition/greedy.hpp"

#include <utility>

namespace ssamr {

PartitionResult GreedyPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);

  // Price each box once (particle-coupled models make box_work a count),
  // then place the largest boxes first, emitting them in placement order.
  LptPlacement lpt = lpt_place(per_box_work(boxes, work), capacities);
  PartitionResult result;
  result.target_work =
      capacity_targets(total_work(boxes, work), capacities, cap_sum);
  result.assigned_work = std::move(lpt.loads);
  result.assignments.reserve(boxes.size());
  for (std::size_t i : lpt.order)
    result.assignments.push_back({boxes[i], lpt.owner[i]});
  return result;
}

}  // namespace ssamr
