#pragma once
/// \file metrics.hpp
/// Quality metrics for partitions: the paper's load-imbalance percentage
/// (Eq. 2) and communication-volume estimates.

#include <vector>

#include "partition/partitioner.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Per-processor load imbalance (paper Eq. 2):
///     I_k = |W_k − L_k| / L_k · 100 %
/// Processors with zero target report 0 when also assigned zero, else a
/// large sentinel (10⁴ %).
std::vector<real_t> load_imbalance_pct(const PartitionResult& r);

/// The largest I_k over all processors.
real_t max_load_imbalance_pct(const PartitionResult& r);

/// Work-weighted aggregate imbalance: max_k(W_k / L_k) − 1, as a
/// percentage.  This is the slowdown the partition costs under perfectly
/// capacity-proportional execution.
real_t effective_imbalance_pct(const PartitionResult& r);

/// Estimated ghost-communication volume in cells: for every assigned box,
/// the cells of its `ghost`-wide shell covered by same-level boxes owned by
/// *other* ranks (counted once per (src,dst) direction).
std::int64_t partition_comm_cells(const PartitionResult& r, coord_t ghost);

/// One directed rank-to-rank traffic aggregate.
struct RankFlow {
  rank_t src = 0;
  rank_t dst = 0;
  std::int64_t bytes = 0;

  bool operator==(const RankFlow&) const = default;
};

/// Directed point-to-point ghost traffic of one coarse step: for every
/// ordered rank pair (src → dst), the bytes dst's ghost shells receive
/// from boxes owned by src.  Sorted by (src, dst), zero flows omitted.
/// Summing the flows incident to a rank (either side) gives the bytes that
/// rank exchanges per coarse step.
///
/// The comm metrics discover adjacencies through rank-local box views
/// (hdda/local_view.hpp) rather than the historical all-pairs scan; the
/// per-pair cell counts are integers, so the totals are identical.
std::vector<RankFlow> pairwise_comm_bytes(const PartitionResult& r,
                                          coord_t ghost, int ncomp);

/// Directed data movement when ownership changes from `previous` to `next`:
/// for every same-level overlap whose owner differs between the two
/// partitions, `overlap.cells() × cell_bytes` flows old owner → new owner.
/// An empty `previous` means initial placement: everything scatters from
/// rank 0 (flows 0 → owner for every box not owned by rank 0).  Sorted by
/// (src, dst), zero flows omitted.  Overlaps are discovered with an SFC key
/// index over `previous` (O((|prev|+|next|) log |prev|)), not the
/// historical |prev|·|next| double loop; byte counts are identical.
std::vector<RankFlow> ownership_transfer_flows(const PartitionResult& previous,
                                               const PartitionResult& next,
                                               std::int64_t cell_bytes);

}  // namespace ssamr
