#include "partition/heterogeneous.hpp"

#include <algorithm>
#include <numeric>

#include "partition/partition_audit.hpp"
#include "util/audit.hpp"

namespace ssamr {

HeterogeneousPartitioner::HeterogeneousPartitioner(
    PartitionConstraints constraints)
    : constraints_(constraints) {}

PartitionResult HeterogeneousPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);
  const std::size_t nproc = capacities.size();

  // Sort boxes ascending by work.  Price each box once up front — under a
  // particle-coupled model box_work counts particles, which neither the
  // sort comparator nor the walk may re-trigger.
  const std::vector<real_t> works = per_box_work(boxes, work);
  std::vector<std::size_t> perm(boxes.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) {
                     return works[a] < works[b];
                   });

  // Sort processors ascending by capacity; targets L_k = C_k · L
  // (capacities renormalized defensively).
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});
  std::stable_sort(proc_order.begin(), proc_order.end(),
                   [&](rank_t a, rank_t b) {
                     return capacities[static_cast<std::size_t>(a)] <
                            capacities[static_cast<std::size_t>(b)];
                   });
  const std::vector<real_t> rank_targets = capacity_targets(
      std::accumulate(works.begin(), works.end(), real_t{0}), capacities,
      cap_sum);
  std::vector<real_t> targets(nproc);
  for (std::size_t p = 0; p < nproc; ++p)
    targets[p] = rank_targets[static_cast<std::size_t>(proc_order[p])];

  AssignmentWalk walk(targets, proc_order, work, constraints_);
  for (const std::size_t i : perm) walk.feed(boxes[i], works[i]);
  PartitionResult result = walk.take();

  // Self-audit the walk in Debug/audit builds: coverage, disjointness and
  // split legality against the normalized capacities.
  SSAMR_AUDIT([&] {
    std::vector<real_t> caps(nproc);
    for (std::size_t k = 0; k < nproc; ++k) caps[k] = capacities[k] / cap_sum;
    return audit::validate_partition(boxes, result, caps, work, constraints_);
  }());
  return result;
}

}  // namespace ssamr
