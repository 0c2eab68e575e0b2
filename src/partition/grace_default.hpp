#pragma once
/// \file grace_default.hpp
/// GrACE's default composite partitioner ("ACEComposite") — the paper's
/// baseline.
///
/// "This latter scheme assumes homogeneous processors and performs an
///  equal distribution of the workload on the processors."
///
/// The composite grid hierarchy is linearized along a space-filling curve
/// (preserving inter- and intra-level locality) and the ordered sequence is
/// cut into P contiguous chunks of equal work L/P, breaking boxes (longest
/// axis, min-box-size) where a chunk boundary falls inside one.  That is
/// the capacity-weighted curve walk (distributed_sfc.hpp) at one shard and
/// unit capacities: its targets L · 1 / P equal L / P bit for bit.

#include "partition/distributed_sfc.hpp"

namespace ssamr {

/// The homogeneous equal-work baseline.
class GraceDefaultPartitioner final : public Partitioner {
 public:
  explicit GraceDefaultPartitioner(SfcConfig sfc = {},
                                   PartitionConstraints constraints = {});

  /// Reads only capacities.size(): the values are deliberately ignored.
  PartitionResult partition(const BoxList& boxes,
                            const std::vector<real_t>& capacities,
                            const WorkModel& work) const override;

  std::string name() const override { return "ACEComposite"; }

  PartitionConstraints constraints() const override {
    return walk_.constraints();
  }

 private:
  DistributedSfcPartitioner walk_;
};

}  // namespace ssamr
