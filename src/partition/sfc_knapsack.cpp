#include "partition/sfc_knapsack.hpp"

#include <numeric>

namespace ssamr {

SfcKnapsackHybrid::SfcKnapsackHybrid(SfcConfig sfc) : sfc_(sfc) {}

PartitionResult SfcKnapsackHybrid::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);
  const std::size_t nproc = capacities.size();
  const std::size_t nbox = boxes.size();

  // Lay the boxes out along the composite SFC and price each one once.
  const auto perm = sfc_order(boxes.boxes(), sfc_);
  std::vector<real_t> works(nbox);
  for (std::size_t i = 0; i < nbox; ++i)
    works[i] = box_work(boxes[perm[i]], work);
  const real_t total =
      std::accumulate(works.begin(), works.end(), real_t{0});
  const std::vector<real_t> targets =
      capacity_targets(total, capacities, cap_sum);

  // Initial segment boundaries at the capacity-proportional prefix
  // targets: cuts[k] is the first curve position of segment k, so rank k
  // owns curve positions [cuts[k], cuts[k+1]).
  std::vector<std::size_t> cuts(nproc + 1, nbox);
  cuts[0] = 0;
  {
    real_t prefix = 0;
    real_t cum_target = 0;
    std::size_t pos = 0;
    for (std::size_t k = 0; k + 1 < nproc; ++k) {
      cum_target += targets[k];
      while (pos < nbox && prefix + works[pos] <= cum_target)
        prefix += works[pos++];
      cuts[k + 1] = pos;
    }
  }

  std::vector<real_t> loads(nproc, 0);
  for (std::size_t k = 0; k < nproc; ++k)
    for (std::size_t i = cuts[k]; i < cuts[k + 1]; ++i)
      loads[k] += works[i];

  // Knapsack refinement on the boundaries: shifting cuts[k] left moves
  // one box from segment k-1 to k, shifting right moves one from k to
  // k-1.  Apply the first strictly-improving shift per sweep (lowest
  // boundary, left before right), bounded so every input terminates.
  // Shifts only ever exchange boxes between adjacent segments, so each
  // rank's ownership stays a contiguous curve interval.
  const std::size_t max_sweeps = 2 * nbox + 8;
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    const real_t cur_peak = peak_relative_load(loads, capacities);
    if (!(cur_peak > 0)) break;
    bool shifted = false;
    for (std::size_t k = 1; k < nproc && !shifted; ++k) {
      // Left shift: last box of segment k-1 moves into segment k.
      if (cuts[k] > cuts[k - 1]) {
        const real_t w = works[cuts[k] - 1];
        std::vector<real_t> trial = loads;
        trial[k - 1] -= w;
        trial[k] += w;
        if (peak_relative_load(trial, capacities) < cur_peak) {
          loads = trial;
          --cuts[k];
          shifted = true;
          break;
        }
      }
      // Right shift: first box of segment k moves into segment k-1.
      if (cuts[k] < cuts[k + 1]) {
        const real_t w = works[cuts[k]];
        std::vector<real_t> trial = loads;
        trial[k - 1] += w;
        trial[k] -= w;
        if (peak_relative_load(trial, capacities) < cur_peak) {
          loads = trial;
          ++cuts[k];
          shifted = true;
          break;
        }
      }
    }
    if (!shifted) break;
  }

  PartitionResult result;
  result.assigned_work.assign(nproc, 0);
  result.target_work = targets;
  result.assignments.reserve(nbox);
  for (std::size_t k = 0; k < nproc; ++k)
    for (std::size_t i = cuts[k]; i < cuts[k + 1]; ++i) {
      result.assignments.push_back({boxes[perm[i]], static_cast<rank_t>(k)});
      result.assigned_work[k] += works[i];
    }
  return result;
}

}  // namespace ssamr
