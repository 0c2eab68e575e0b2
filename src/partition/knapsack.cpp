#include "partition/knapsack.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace ssamr {

PartitionResult KnapsackPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);
  const std::size_t nproc = capacities.size();
  const std::size_t nbox = boxes.size();

  // Price every box once: with a particle-coupled model box_work counts
  // particles, so the packing loops must not re-evaluate it.
  const std::vector<real_t> works = per_box_work(boxes, work);

  // Phase 1 — LPT seed: GreedyPartitioner's placement, so the refinement
  // below can only improve on greedy's result.
  LptPlacement lpt = lpt_place(works, capacities);
  std::vector<rank_t>& owner = lpt.owner;
  std::vector<real_t>& loads = lpt.loads;

  // Phase 2 — exchange refinement: per step, consider moving one box off
  // the peak rank or swapping one of its boxes with a box of another
  // rank, and apply the candidate that most lowers the peak relative
  // load.  The swap neighbourhood matters: LPT seeds are typically
  // "jump-optimal" (no single move improves the peak), but exchanges
  // still do — that is what distinguishes this scheme from the one-shot
  // GreedyPartitioner.  Deterministic, and tie-broken by *values*
  // (capacities and works), not rank indices, so that permuting a
  // distinct-valued capacity vector permutes the outcome identically:
  // the donor is the largest-capacity peak rank, and candidates tying on
  // the resulting peak are ordered by given work, destination capacity,
  // then taken work (all descending).  Bounded so adversarial inputs
  // terminate.
  const auto trial_peak = [&](std::size_t give_box, std::size_t dst,
                              std::size_t take_box) {
    // give_box: donor -> dst; take_box (or nbox for a pure move):
    // dst -> donor.
    real_t peak = 0;
    const std::size_t donor = static_cast<std::size_t>(owner[give_box]);
    for (std::size_t j = 0; j < nproc; ++j) {
      real_t lj = loads[j];
      if (j == donor) lj -= works[give_box];
      if (j == dst) lj += works[give_box];
      if (take_box != nbox) {
        if (j == dst) lj -= works[take_box];
        if (j == donor) lj += works[take_box];
      }
      if (capacities[j] > 0)
        peak = std::max(peak, lj / capacities[j]);
      else if (lj > 0)
        peak = std::numeric_limits<real_t>::infinity();
    }
    return peak;
  };
  const std::size_t max_moves = 2 * nbox + 8;
  for (std::size_t move = 0; move < max_moves; ++move) {
    const real_t cur_peak = peak_relative_load(loads, capacities);
    if (!(cur_peak > 0)) break;
    std::size_t donor = nproc;
    for (std::size_t k = 0; k < nproc; ++k) {
      const bool at_peak = capacities[k] > 0
                               ? loads[k] / capacities[k] == cur_peak
                               : loads[k] > 0;
      if (at_peak && (donor == nproc || capacities[k] > capacities[donor]))
        donor = k;
    }
    if (donor == nproc) break;

    std::size_t best_give = nbox, best_dst = nproc, best_take = nbox;
    real_t best_peak = cur_peak;
    // Value key of the current best candidate (give work, destination
    // capacity, take work; -1 marks a pure move's absent take).
    real_t best_wi = -1, best_cdst = -1, best_wj = -1;
    const auto better = [&](real_t peak, real_t wi, real_t cdst, real_t wj) {
      if (peak != best_peak) return peak < best_peak;
      if (best_give == nbox) return false;  // equal to the no-op peak
      if (wi != best_wi) return wi > best_wi;
      if (cdst != best_cdst) return cdst > best_cdst;
      return wj > best_wj;
    };
    const auto take_candidate = [&](std::size_t i, std::size_t k,
                                    std::size_t j, real_t peak) {
      best_peak = peak;
      best_give = i;
      best_dst = k;
      best_take = j;
      best_wi = works[i];
      best_cdst = capacities[k];
      best_wj = j != nbox ? works[j] : real_t{-1};
    };
    for (std::size_t i = 0; i < nbox; ++i) {
      if (owner[i] != static_cast<rank_t>(donor)) continue;
      for (std::size_t k = 0; k < nproc; ++k) {
        if (k == donor || capacities[k] <= 0) continue;
        const real_t moved = trial_peak(i, k, nbox);
        if (moved < cur_peak &&
            better(moved, works[i], capacities[k], real_t{-1}))
          take_candidate(i, k, nbox, moved);
        for (std::size_t j = 0; j < nbox; ++j) {
          if (owner[j] != static_cast<rank_t>(k)) continue;
          const real_t swapped = trial_peak(i, k, j);
          if (swapped < cur_peak &&
              better(swapped, works[i], capacities[k], works[j]))
            take_candidate(i, k, j, swapped);
        }
      }
    }
    if (best_give == nbox) break;  // no strictly improving exchange
    loads[donor] -= works[best_give];
    loads[best_dst] += works[best_give];
    owner[best_give] = static_cast<rank_t>(best_dst);
    if (best_take != nbox) {
      loads[best_dst] -= works[best_take];
      loads[donor] += works[best_take];
      owner[best_take] = static_cast<rank_t>(donor);
    }
  }

  PartitionResult result;
  result.assigned_work.assign(nproc, 0);
  result.target_work = capacity_targets(
      std::accumulate(works.begin(), works.end(), real_t{0}), capacities,
      cap_sum);
  // Emit in input order and recompute W_k from final ownership, so the
  // bookkeeping is a plain left-to-right sum over the input list rather
  // than the move history.
  result.assignments.reserve(nbox);
  for (std::size_t i = 0; i < nbox; ++i) {
    result.assignments.push_back({boxes[i], owner[i]});
    result.assigned_work[static_cast<std::size_t>(owner[i])] += works[i];
  }
  return result;
}

}  // namespace ssamr
