#pragma once
/// \file distributed_sfc.hpp
/// Distributed capacity-weighted SFC partitioning ("DistributedSfcPrefix")
/// — the library's one curve walk.
///
/// The composite space-filling-curve order is cut into contiguous segments,
/// one per processor, at the capacity-proportional targets L_k = C_k · L.
/// Instead of sorting the entire composite box list on one rank — O(N log N)
/// memory and time on a single process, which caps the virtual cluster well
/// below real machine sizes — this scheme executes the Schornbaum & Rüde
/// distributed load-balancing recipe, phrased over curve *shards* (the role
/// a rank's local box set plays in a real deployment):
///
///   1. each shard keys and sorts only its own boxes (parallel, local);
///   2. an ordered carry-chain scan accumulates the total work shard by
///      shard in input order — a prefix-sum (exscan) over curve weights,
///      reproducing total_work's left fold bit-exactly;
///   3. capacity-proportional quantile targets L_p = C_p/ΣC · L cut the
///      curve; the cut walk streams boxes out of a K-way shard merge
///      through the shared AssignmentWalk, carrying only an O(P) cursor —
///      the pipelined prefix walk of the paper, never a global sorted list.
///
/// Because the shard merge reproduces the global stable sfc_order total
/// order (key, level, input position), the output is **bit-identical** to
/// the global sort-then-walk for every input, at every shard count (pinned
/// against the oracle in tests/oracle.hpp by
/// tests/distributed_partition_test.cpp).  At one shard it is the
/// locality-preserving hybrid ("sfc-heterogeneous" in the zoo), and at one
/// shard with unit capacities GrACE's equal-work baseline
/// (grace_default.hpp).  The global box list appears only inside the
/// SSAMR_AUDIT hook — a debug/audit construct.

#include "partition/partitioner.hpp"
#include "sfc/sfc_index.hpp"

namespace ssamr {

/// Distributed prefix-sum partitioner over capacity-proportional quantiles
/// of the curve-ordered work.
class DistributedSfcPartitioner final : public Partitioner {
 public:
  /// \param shard_count curve shards the metadata is split into (a stand-in
  ///        for "ranks" of the metadata plane; clamped to the box count).
  explicit DistributedSfcPartitioner(SfcConfig sfc = {}, int shard_count = 8,
                                     PartitionConstraints constraints = {});

  PartitionResult partition(const BoxList& boxes,
                            const std::vector<real_t>& capacities,
                            const WorkModel& work) const override;

  std::string name() const override { return "DistributedSfcPrefix"; }

  PartitionConstraints constraints() const override { return constraints_; }

 private:
  SfcConfig sfc_;
  int shard_count_;
  PartitionConstraints constraints_;
};

}  // namespace ssamr
