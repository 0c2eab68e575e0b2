#include "partition/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace ssamr {

namespace {

/// Work of one index-space plane of `b` perpendicular to `axis`, cells
/// only — valid when the model has no particle term.
real_t plane_work(const Box& b, int axis) {
  const IntVec e = b.extent();
  std::int64_t cells_per_plane = 1;
  for (int d = 0; d < kDim; ++d)
    if (d != axis) cells_per_plane *= e[d];
  return static_cast<real_t>(cells_per_plane) *
         static_cast<real_t>(refinement_scale(b.level()));
}

/// Exact work of the first `planes` planes of `b` along `axis` under a
/// particle-coupled model (particle density varies across planes, so the
/// uniform plane_work estimate does not apply).
real_t prefix_work(const Box& b, int axis, coord_t planes,
                   const WorkModel& work) {
  return box_work(b.split(axis, planes).first, work);
}

/// A cut of a box along one axis: the first piece's plane count (0 when
/// no admissible cut exists) and, under a particle-coupled model, the
/// first piece's exact work.
struct Cut {
  coord_t planes = 0;
  real_t first_work = 0;
};

/// Best split of `b` (work `whole_work`) along `axis` for a first-piece
/// work target.
Cut planes_for_target(const Box& b, real_t whole_work, int axis,
                      real_t target_work, const WorkModel& work,
                      coord_t min_size) {
  const coord_t n = b.extent()[axis];
  if (n < 2 * min_size) return {};

  if (work.has_particles()) {
    if (!(whole_work > 0)) return {};
    // Prefix work is monotone non-decreasing in the plane count (cell and
    // particle costs are non-negative), so binary-search the largest
    // admissible cut whose first piece stays within the target; when even
    // the smallest admissible piece exceeds it, take that smallest piece
    // (mirrors the floating-point clamp below).  The search prices the
    // piece it returns, so its work comes with it.
    Cut cut{min_size, prefix_work(b, axis, min_size, work)};
    if (cut.first_work > target_work) return cut;
    coord_t hi = n - min_size;
    while (cut.planes < hi) {
      const coord_t mid = cut.planes + (hi - cut.planes + 1) / 2;
      const real_t mid_work = prefix_work(b, axis, mid, work);
      if (mid_work <= target_work)
        cut = {mid, mid_work};
      else
        hi = mid - 1;
    }
    return cut;
  }

  const real_t pw = plane_work(b, axis);
  if (!(pw > 0)) return {};
  // Clamp in floating point BEFORE converting: target_work / pw can exceed
  // the range of coord_t (huge targets, tiny per-plane work), and casting
  // an out-of-range double to an integer is undefined behaviour.
  const real_t clamped =
      std::clamp(std::floor(target_work / pw), static_cast<real_t>(min_size),
                 static_cast<real_t>(n - min_size));
  return {static_cast<coord_t>(clamped), 0};
}

/// `b` cut by `cut` along `axis`, or nullopt when `cut` is no cut.
/// Cells-only pieces are priced here, without counting anything.
std::optional<WorkSplit> cut_box(const Box& b, int axis, const Cut& cut,
                                 const WorkModel& work) {
  if (cut.planes == 0) return std::nullopt;
  const auto [first, second] = b.split(axis, cut.planes);
  return WorkSplit{first, second,
                   work.has_particles() ? cut.first_work
                                        : box_work(first, work)};
}

}  // namespace

real_t capacity_sum(const std::vector<real_t>& capacities) {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  for (real_t c : capacities)
    SSAMR_REQUIRE(c >= 0, "capacities must be non-negative");
  const real_t cap_sum =
      std::accumulate(capacities.begin(), capacities.end(), real_t{0});
  SSAMR_REQUIRE(cap_sum > 0, "capacities must not all be zero");
  return cap_sum;
}

std::vector<real_t> capacity_targets(real_t total,
                                     const std::vector<real_t>& capacities,
                                     real_t cap_sum) {
  std::vector<real_t> targets(capacities.size());
  for (std::size_t k = 0; k < capacities.size(); ++k)
    targets[k] = total * capacities[k] / cap_sum;
  return targets;
}

real_t peak_relative_load(const std::vector<real_t>& loads,
                          const std::vector<real_t>& capacities) {
  real_t peak = 0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    if (capacities[k] > 0)
      peak = std::max(peak, loads[k] / capacities[k]);
    else if (loads[k] > 0)
      peak = std::numeric_limits<real_t>::infinity();
  }
  return peak;
}

LptPlacement lpt_place(const std::vector<real_t>& works,
                       const std::vector<real_t>& capacities) {
  const std::size_t nproc = capacities.size();
  LptPlacement out;
  out.order.resize(works.size());
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return works[a] > works[b];
                   });
  out.owner.assign(works.size(), 0);
  out.loads.assign(nproc, 0);
  for (std::size_t i : out.order) {
    // A value-keyed tie-break, so permuting a distinct-valued capacity
    // vector permutes the placement identically.
    std::size_t best = 0;
    real_t best_rel = std::numeric_limits<real_t>::infinity();
    for (std::size_t k = 0; k < nproc; ++k) {
      if (capacities[k] <= 0) continue;
      const real_t rel = (out.loads[k] + works[i]) / capacities[k];
      if (rel < best_rel ||
          (rel == best_rel && capacities[k] > capacities[best])) {
        best_rel = rel;
        best = k;
      }
    }
    out.owner[i] = static_cast<rank_t>(best);
    out.loads[best] += works[i];
  }
  return out;
}

std::optional<WorkSplit> split_for_work(
    const Box& b, real_t whole_work, real_t target_work,
    const WorkModel& work, const PartitionConstraints& constraints) {
  SSAMR_REQUIRE(!b.empty(), "cannot split an empty box");
  SSAMR_REQUIRE(target_work >= 0, "target work must be non-negative");
  const coord_t min_size = std::max<coord_t>(constraints.min_box_size, 1);

  if (constraints.longest_axis_only) {
    const int axis = b.longest_axis();
    return cut_box(b, axis,
                   planes_for_target(b, whole_work, axis, target_work, work,
                                     min_size),
                   work);
  }

  // Multi-axis mode: choose the axis whose admissible cut lands closest to
  // the target without exceeding it (ties: prefer the longest axis, which
  // keeps aspect ratios healthy).
  int best_axis = -1;
  Cut best_cut;
  real_t best_err = std::numeric_limits<real_t>::infinity();
  for (int axis = 0; axis < kDim; ++axis) {
    const Cut cut =
        planes_for_target(b, whole_work, axis, target_work, work, min_size);
    if (cut.planes == 0) continue;
    const real_t piece = work.has_particles()
                             ? cut.first_work
                             : plane_work(b, axis) *
                                   static_cast<real_t>(cut.planes);
    real_t err = std::abs(piece - target_work);
    // Penalize overshoot slightly: undershoot leaves the remainder for the
    // next processor, overshoot overloads this one.
    if (piece > target_work) err *= 1.5;
    const bool better =
        err < best_err ||
        (err == best_err && best_axis >= 0 &&
         b.extent()[axis] > b.extent()[best_axis]);
    if (better) {
      best_err = err;
      best_axis = axis;
      best_cut = cut;
    }
  }
  return cut_box(b, best_axis, best_cut, work);
}

AssignmentWalk::AssignmentWalk(const std::vector<real_t>& targets,
                               const std::vector<rank_t>& proc_order,
                               const WorkModel& work,
                               const PartitionConstraints& constraints)
    : work_(work),
      constraints_(constraints),
      targets_(targets),
      proc_order_(proc_order) {
  SSAMR_REQUIRE(!targets_.empty(), "need at least one processor");
  SSAMR_REQUIRE(targets_.size() == proc_order_.size(),
                "targets/proc_order size mismatch");
  const std::size_t nproc = targets_.size();
  result_.assigned_work.assign(nproc, 0);
  result_.target_work.assign(nproc, 0);
  for (std::size_t p = 0; p < nproc; ++p)
    result_.target_work[static_cast<std::size_t>(proc_order_[p])] =
        targets_[p];
}

void AssignmentWalk::feed(const Box& box, real_t w) {
  // One in-flight box carries the walk: only the *front* remainder is
  // ever re-examined before the next input box is consumed.  `w` is the
  // work of `cur`: each box, and each remainder of a split, is priced
  // once.
  const std::size_t nproc = targets_.size();
  Box cur = box;
  for (;;) {
    const rank_t rank = proc_order_[p_];
    auto& assigned = result_.assigned_work[static_cast<std::size_t>(rank)];
    const bool last = (p_ + 1 == nproc);

    if (!last && assigned >= targets_[p_]) {
      ++p_;
      continue;
    }

    const real_t remaining = targets_[p_] - assigned;

    if (last || w <= remaining) {
      result_.assignments.push_back({cur, rank});
      assigned += w;
      return;
    }

    const auto pieces = split_for_work(cur, w, remaining, work_, constraints_);
    if (pieces) {
      ++result_.splits;
      result_.assignments.push_back({pieces->first, rank});
      assigned += pieces->first_work;
      cur = pieces->second;
      w = box_work(cur, work_);
      ++p_;
      continue;
    }

    // Unsplittable box larger than the remaining target: take it when more
    // than half of it fits (better here than overloading a later
    // processor), otherwise hand it to the next processor.
    if (remaining >= 0.5 * w) {
      result_.assignments.push_back({cur, rank});
      assigned += w;
      ++p_;
      return;
    }
    ++p_;
  }
}

PartitionResult AssignmentWalk::take() { return std::move(result_); }

}  // namespace ssamr
