#include "partition/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace ssamr {

PartitionResult GreedyPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  for (real_t c : capacities)
    SSAMR_REQUIRE(c >= 0, "capacities must be non-negative");
  const real_t cap_sum =
      std::accumulate(capacities.begin(), capacities.end(), real_t{0});
  SSAMR_REQUIRE(cap_sum > 0, "capacities must not all be zero");
  const std::size_t nproc = capacities.size();

  // Price each box once (particle-coupled models make box_work a count),
  // then take the largest boxes first.
  std::vector<real_t> works = per_box_work(boxes, work);
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return works[a] > works[b];
                   });

  PartitionResult result;
  result.assigned_work.assign(nproc, 0);
  result.target_work.assign(nproc, 0);
  const real_t total = total_work(boxes, work);
  for (std::size_t k = 0; k < nproc; ++k)
    result.target_work[k] = total * capacities[k] / cap_sum;

  for (std::size_t i : order) {
    // Rank with the smallest relative load (ranks with zero capacity are
    // used only if every capacity is zero, which the REQUIRE rules out).
    // Exact ties go to the larger capacity — a value-keyed tie-break, so
    // permuting a distinct-valued capacity vector permutes the assignment
    // identically (then to the lower index, for equal capacities).
    std::size_t best = 0;
    real_t best_rel = std::numeric_limits<real_t>::infinity();
    for (std::size_t k = 0; k < nproc; ++k) {
      if (capacities[k] <= 0) continue;
      const real_t rel = (result.assigned_work[k] + works[i]) / capacities[k];
      if (rel < best_rel ||
          (rel == best_rel && capacities[k] > capacities[best])) {
        best_rel = rel;
        best = k;
      }
    }
    result.assignments.push_back({boxes[i], static_cast<rank_t>(best)});
    result.assigned_work[best] += works[i];
  }
  return result;
}

}  // namespace ssamr
