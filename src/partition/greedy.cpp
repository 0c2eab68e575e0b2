#include "partition/greedy.hpp"

#include <numeric>
#include <utility>

namespace ssamr {

PartitionResult GreedyPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);

  // Price each box once (particle-coupled models make box_work a count),
  // then place the largest boxes first, emitting them in placement order.
  const std::vector<real_t> works = per_box_work(boxes, work);
  LptPlacement lpt = lpt_place(works, capacities);
  PartitionResult result;
  result.target_work = capacity_targets(
      std::accumulate(works.begin(), works.end(), real_t{0}), capacities,
      cap_sum);
  result.assigned_work = std::move(lpt.loads);
  result.assignments.reserve(boxes.size());
  for (std::size_t i : lpt.order)
    result.assignments.push_back({boxes[i], lpt.owner[i]});
  return result;
}

}  // namespace ssamr
