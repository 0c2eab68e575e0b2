#include "partition/partition_audit.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "geom/box.hpp"
#include "geom/box_algebra.hpp"
#include "geom/point.hpp"

namespace ssamr::audit {

namespace {

std::string str(const Box& b) {
  std::ostringstream os;
  os << b;
  return os.str();
}

std::string rank_loc(std::size_t k) { return "rank " + std::to_string(k); }

bool finite(real_t v) { return std::isfinite(v); }

/// Relative tolerance of exact bookkeeping identities (work sums).
constexpr real_t kWorkRelTolerance = 1e-6;
/// Per-rank deviation of assigned from target work beyond which a
/// load-tracking warning is issued, as a fraction of the mean target.
constexpr real_t kLoadRelTolerance = 0.5;
/// Multiplicative slack on the aspect-ratio bound (numerical headroom).
constexpr real_t kAspectSlack = 1.0 + 1e-9;

}  // namespace

AuditReport validate_partition(const BoxList& input,
                               const PartitionResult& result,
                               const std::vector<real_t>& capacities,
                               const WorkModel& work,
                               const PartitionConstraints& constraints) {
  AuditReport r("partition");
  const std::size_t nranks = capacities.size();
  if (nranks == 0) {
    r.add(Severity::Error, "partition.shape", "",
          "capacity vector is empty");
    return r;
  }
  if (result.assigned_work.size() != nranks ||
      result.target_work.size() != nranks) {
    r.add(Severity::Error, "partition.shape", "",
          "assigned_work/target_work sized " +
              std::to_string(result.assigned_work.size()) + "/" +
              std::to_string(result.target_work.size()) + " for " +
              std::to_string(nranks) + " capacities");
    return r;
  }

  // Owners in range, no degenerate pieces.
  for (const BoxAssignment& a : result.assignments) {
    if (a.owner < 0 || a.owner >= static_cast<rank_t>(nranks))
      r.add(Severity::Error, "partition.ranks", str(a.box),
            "owner " + std::to_string(a.owner) + " outside 0.." +
                std::to_string(nranks - 1));
    if (a.box.empty())
      r.add(Severity::Error, "partition.empty_box", str(a.box),
            "assignment contains an empty box");
  }

  // No two same-level pieces may overlap.
  for (std::size_t i = 0; i < result.assignments.size(); ++i)
    for (std::size_t j = i + 1; j < result.assignments.size(); ++j) {
      const Box& a = result.assignments[i].box;
      const Box& b = result.assignments[j].box;
      if (a.level() == b.level() && a.intersects(b))
        r.add(Severity::Error, "partition.overlap", str(a),
              "overlaps assigned box " + str(b));
    }

  // Each piece must lie inside exactly one input box; split pieces must
  // respect the minimum box size and the aspect-ratio bound reachable by
  // legal splitting (longest input extent over the smallest admissible
  // extent).
  for (const BoxAssignment& a : result.assignments) {
    if (a.box.empty()) continue;
    const Box* parent = nullptr;
    for (const Box& in : input)
      if (in.level() == a.box.level() && in.contains(a.box)) {
        parent = &in;
        break;
      }
    if (parent == nullptr) {
      r.add(Severity::Error, "partition.containment", str(a.box),
            "piece is not contained in any input box");
      continue;
    }
    if (a.box == *parent) continue;  // whole-box assignment, always legal
    const IntVec ext = a.box.extent();
    const IntVec in_ext = parent->extent();
    for (int d = 0; d < kDim; ++d)
      if (ext[d] < std::min(constraints.min_box_size, in_ext[d]))
        r.add(Severity::Error, "partition.min_box", str(a.box),
              "extent " + std::to_string(ext[d]) + " along axis " +
                  std::to_string(d) + " violates min_box_size " +
                  std::to_string(constraints.min_box_size) + " (input " +
                  str(*parent) + ")");
    const coord_t in_longest = std::max({in_ext.x, in_ext.y, in_ext.z});
    const coord_t in_shortest = std::min({in_ext.x, in_ext.y, in_ext.z});
    const coord_t admissible = std::min(constraints.min_box_size, in_shortest);
    if (admissible > 0) {
      const real_t bound = static_cast<real_t>(in_longest) /
                           static_cast<real_t>(admissible);
      if (a.box.aspect_ratio() > bound * kAspectSlack)
        r.add(Severity::Error, "partition.aspect_ratio", str(a.box),
              "aspect ratio " + std::to_string(a.box.aspect_ratio()) +
                  " exceeds the bound " + std::to_string(bound) +
                  " of legal splits of " + str(*parent));
    }
  }

  // Full coverage: every input cell is assigned (given the overlap check,
  // exactly once).
  for (const Box& in : input) {
    std::vector<Box> pieces;
    for (const BoxAssignment& a : result.assignments)
      if (a.box.level() == in.level() && a.box.intersects(in))
        pieces.push_back(a.box.intersection(in));
    if (!box_difference(in, pieces).empty())
      r.add(Severity::Error, "partition.coverage", str(in),
            "input box is not fully covered by assigned pieces");
  }

  // Work bookkeeping: W_k must equal the work of rank k's pieces, and the
  // total must equal the input work.
  const real_t total = total_work(input, work);
  std::vector<real_t> recomputed(nranks, 0);
  for (const BoxAssignment& a : result.assignments)
    if (a.owner >= 0 && a.owner < static_cast<rank_t>(nranks))
      recomputed[static_cast<std::size_t>(a.owner)] += box_work(a.box, work);
  real_t assigned_sum = 0;
  const real_t work_tol = std::max(total, real_t{1}) * kWorkRelTolerance;
  for (std::size_t k = 0; k < nranks; ++k) {
    if (!finite(result.assigned_work[k]) || result.assigned_work[k] < 0)
      r.add(Severity::Error, "partition.work_bookkeeping", rank_loc(k),
            "assigned work is negative or non-finite");
    else if (std::abs(result.assigned_work[k] - recomputed[k]) > work_tol)
      r.add(Severity::Error, "partition.work_bookkeeping", rank_loc(k),
            "assigned_work " + std::to_string(result.assigned_work[k]) +
                " does not match the work of the rank's pieces " +
                std::to_string(recomputed[k]));
    assigned_sum += result.assigned_work[k];
  }
  if (std::abs(assigned_sum - total) > work_tol)
    r.add(Severity::Error, "partition.work_sum", "",
          "assigned work sums to " + std::to_string(assigned_sum) +
              ", input work is " + std::to_string(total));

  // Load tracking (soft): W_k should stay near L_k, and L_k near C_k · L
  // (Eq. 1).  Deviations are expected — box granularity, the remainder
  // absorbed by the last rank, capacity-blind baselines — so these warn.
  const real_t mean_target =
      std::max(total / static_cast<real_t>(nranks), real_t{1e-12});
  for (std::size_t k = 0; k < nranks; ++k) {
    const real_t target = result.target_work[k];
    if (!finite(target) || target < 0) {
      r.add(Severity::Error, "partition.work_bookkeeping", rank_loc(k),
            "target work is negative or non-finite");
      continue;
    }
    if (std::abs(result.assigned_work[k] - target) >
        kLoadRelTolerance * mean_target)
      r.add(Severity::Warning, "partition.load_tracking", rank_loc(k),
            "assigned work " + std::to_string(result.assigned_work[k]) +
                " is far from the target " + std::to_string(target));
    if (std::abs(target - capacities[k] * total) >
        kLoadRelTolerance * mean_target)
      r.add(Severity::Warning, "partition.target_capacity", rank_loc(k),
            "target " + std::to_string(target) +
                " is far from the capacity share C_k * L = " +
                std::to_string(capacities[k] * total));
  }
  return r;
}

}  // namespace ssamr::audit
