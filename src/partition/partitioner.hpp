#pragma once
/// \file partitioner.hpp
/// The partitioner interface and shared box-splitting machinery.
///
/// A partitioner receives the hierarchy's bounding-box list (as GrACE hands
/// it over at every regrid) plus the relative capacities C_k, and returns
/// an ownership assignment, possibly breaking boxes subject to the paper's
/// constraints: minimum box size, and splits along the longest dimension to
/// maintain aspect ratio.

#include <optional>
#include <string>
#include <vector>

#include "amr/workload.hpp"
#include "geom/box.hpp"
#include "geom/box_list.hpp"
#include "util/types.hpp"

namespace ssamr {

/// One assigned box.
struct BoxAssignment {
  Box box;
  rank_t owner = 0;

  bool operator==(const BoxAssignment&) const = default;
};

/// Output of a partitioning pass.
struct PartitionResult {
  /// Every (possibly split) box with its owner.
  std::vector<BoxAssignment> assignments;
  /// W_k: work actually assigned to each rank.
  std::vector<real_t> assigned_work;
  /// L_k: the ideal (capacity-proportional) work targets the partitioner
  /// aimed for.
  std::vector<real_t> target_work;
  /// Number of box splits performed.
  int splits = 0;

  /// Bit-exact comparison (the determinism tests diff whole results).
  bool operator==(const PartitionResult&) const = default;
};

/// The paper's splitting constraints (§5.3).
struct PartitionConstraints {
  /// No split may create a box with extent < min_box_size along the cut
  /// axis ("Minimum box size: all boxes must be greater than or equal to
  /// this size").
  coord_t min_box_size = 4;
  /// Boxes are always cut along their longest dimension ("Aspect ratio: …
  /// a box is always broken along the longest dimension").  Partitioners
  /// honouring the paper exactly keep this true; the multi-axis extension
  /// (paper §8 future work) relaxes it.
  bool longest_axis_only = true;
};

/// Abstract partitioner.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Distribute `boxes` over capacities.size() processors.
  /// \param boxes the composite bounding-box list from the hierarchy
  /// \param capacities relative capacities C_k (must sum to ≈ 1); the
  ///        homogeneous baseline ignores the values but uses the count
  /// \param work the work model translating boxes into load
  virtual PartitionResult partition(const BoxList& boxes,
                                    const std::vector<real_t>& capacities,
                                    const WorkModel& work) const = 0;

  /// Identifier for reporting (e.g. "ACEComposite", "ACEHeterogeneous").
  virtual std::string name() const = 0;

  /// The splitting constraints this partitioner honours.  Audits
  /// (partition/partition_audit.hpp) check partition results against these; the
  /// default matches the paper's constraints.
  virtual PartitionConstraints constraints() const {
    return PartitionConstraints{};
  }
};

/// Validate the capacities of a partitioning pass — at least one, none
/// negative, not all zero — and return their sum ΣC.
real_t capacity_sum(const std::vector<real_t>& capacities);

/// Capacity-proportional work targets L_k = L · C_k / ΣC in rank order,
/// for `total` work L and `cap_sum` = capacity_sum(capacities).
std::vector<real_t> capacity_targets(real_t total,
                                     const std::vector<real_t>& capacities,
                                     real_t cap_sum);

/// Peak relative load max_k W_k / C_k over all ranks; a rank with zero
/// capacity contributes only when it holds work (then the peak is
/// infinite).
real_t peak_relative_load(const std::vector<real_t>& loads,
                          const std::vector<real_t>& capacities);

/// Whole-box LPT (largest processing time first) placement.
struct LptPlacement {
  /// Box indices in placement order: work descending, stable.
  std::vector<std::size_t> order;
  /// Owner of each box, by input index.
  std::vector<rank_t> owner;
  /// Work placed on each rank.
  std::vector<real_t> loads;
};

/// Place boxes of work `works`, largest first, each onto the rank with the
/// smallest relative load after taking it.  Exact ties go to the larger
/// capacity, then to the lower index; zero-capacity ranks take nothing.
/// `capacities` must pass capacity_sum().
LptPlacement lpt_place(const std::vector<real_t>& works,
                       const std::vector<real_t>& capacities);

/// A box cut in two by split_for_work, with the work of the first piece.
struct WorkSplit {
  Box first, second;
  real_t first_work = 0;
};

/// Split `b`, whose work is `whole_work`, so that the first piece's work is
/// as close as possible to `target_work` without (if feasible) exceeding
/// it, cutting along the longest axis (or, when
/// `constraints.longest_axis_only` is false, along the axis giving the best
/// fit).  Returns nullopt when the box cannot be split without violating
/// min_box_size, or when target_work is too small for even the smallest
/// admissible piece (callers then assign the whole box).  Under a
/// particle-coupled model the search has already priced the first piece,
/// so its work comes back without another count.
std::optional<WorkSplit> split_for_work(
    const Box& b, real_t whole_work, real_t target_work,
    const WorkModel& work, const PartitionConstraints& constraints);

/// The greedy assignment walk of paper §5.3 as a resumable state machine:
/// processors are visited in `proc_order`, the p-th visited processor aims
/// for `targets[p]` work; boxes are fed one at a time in the caller's order
/// (curve order, or ACEHeterogeneous's work order), splitting
/// (split_for_work) when a box exceeds the processor's remaining target and
/// assigning whole otherwise.  The last processor absorbs the remainder.
///
/// It is the one walk every splitting partitioner runs.  Between feed()
/// calls its state is one cursor plus the per-rank accumulators (O(P)),
/// which is exactly the pipelined carry a real distributed implementation
/// would pass along the curve, so the distributed prefix-sum partitioner
/// streams boxes out of a shard merge without a global ordered box list.
///
/// `work` is captured by reference and must outlive the walk.
class AssignmentWalk {
 public:
  /// `targets` and `proc_order` must have equal, non-zero size.
  AssignmentWalk(const std::vector<real_t>& targets,
                 const std::vector<rank_t>& proc_order, const WorkModel& work,
                 const PartitionConstraints& constraints);

  /// Consume the next box in the walk's order; `w` is its work under
  /// the walk's model (callers have priced every box already).
  void feed(const Box& box, real_t w);

  /// Finish the walk and surrender the accumulated result.  The walk must
  /// not be fed afterwards.
  PartitionResult take();

 private:
  const WorkModel& work_;
  PartitionConstraints constraints_;
  std::vector<real_t> targets_;
  std::vector<rank_t> proc_order_;
  std::size_t p_ = 0;  ///< position in proc_order
  PartitionResult result_;
};

}  // namespace ssamr
