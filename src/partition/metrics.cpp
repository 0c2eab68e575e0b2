#include "partition/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "hdda/local_view.hpp"
#include "sfc/key_index.hpp"
#include "util/error.hpp"

namespace ssamr {

std::vector<real_t> load_imbalance_pct(const PartitionResult& r) {
  SSAMR_REQUIRE(r.assigned_work.size() == r.target_work.size(),
                "malformed partition result");
  std::vector<real_t> out(r.assigned_work.size(), 0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const real_t W = r.assigned_work[k];
    const real_t L = r.target_work[k];
    if (L <= 0) {
      out[k] = W <= 0 ? 0 : 1.0e4;
      continue;
    }
    out[k] = std::abs(W - L) / L * 100.0;
  }
  return out;
}

real_t max_load_imbalance_pct(const PartitionResult& r) {
  const auto v = load_imbalance_pct(r);
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

real_t effective_imbalance_pct(const PartitionResult& r) {
  real_t worst = 0;
  for (std::size_t k = 0; k < r.assigned_work.size(); ++k) {
    const real_t L = r.target_work[k];
    if (L <= 0) continue;
    worst = std::max(worst, r.assigned_work[k] / L);
  }
  return worst > 1 ? (worst - 1) * 100.0 : 0.0;
}

namespace {
/// Cells of `a`'s ghost shell covered by `b` (same level only).
std::int64_t shell_overlap_cells(const Box& a, const Box& b, coord_t ghost) {
  if (a.level() != b.level()) return 0;
  const Box shell_bound = a.grown(ghost);
  const Box overlap = shell_bound.intersection(b);
  if (overlap.empty()) return 0;
  // Subtract the part overlapping a's interior.
  const Box inner = a.intersection(b);
  return overlap.cells() - inner.cells();
}

/// Cells one rank pair exchanges per ghost fill.
struct PairCells {
  rank_t src = 0;
  rank_t dst = 0;
  std::int64_t cells = 0;
};

/// Directed cross-owner ghost-shell cells, one entry per (src, dst) pair
/// with a positive count, sorted by (src, dst).  Adjacencies come from
/// rank-local box views (each view links its owned boxes to the remote
/// same-level boxes within `ghost` cells) instead of the historical
/// all-pairs scan.  Every cross-owner pair with a non-empty shell overlap
/// appears in exactly one view's link list, and the per-pair counts are
/// integers, so the totals are identical to the O(N²) loop.
///
/// Contributions merge before anything sorts: views arrive in destination
/// order, each view sums its links per source rank in a dense row, and a
/// stable counting sort by source then yields (src, dst) order.  Only one
/// entry per rank pair is ever stored, never one per link.
std::vector<PairCells> ghost_flow_cells(const PartitionResult& r,
                                        coord_t ghost) {
  const auto& as = r.assignments;
  std::vector<Box> boxes;
  std::vector<rank_t> owners;
  boxes.reserve(as.size());
  owners.reserve(as.size());
  rank_t max_owner = 0;
  for (const BoxAssignment& a : as) {
    boxes.push_back(a.box);
    owners.push_back(a.owner);
    max_owner = std::max(max_owner, a.owner);
  }
  const auto nranks = static_cast<std::size_t>(max_owner) + 1;
  std::vector<PairCells> by_dst;
  std::vector<std::int64_t> row(nranks, 0);
  std::vector<rank_t> touched;
  std::vector<std::size_t> start(nranks + 1, 0);
  const SfcKeyIndex index(boxes);
  for (const LocalBoxView& view :
       build_local_views(boxes, owners, max_owner + 1, ghost, index,
                         HaloPolicy::kLinksOnly)) {
    for (const NeighborLink& l : view.links) {
      // Box l.owned's ghost shell filled from box l.neighbor: data flows
      // owner(neighbor) -> view.rank.
      const std::int64_t c =
          shell_overlap_cells(boxes[l.owned], boxes[l.neighbor], ghost);
      if (c <= 0) continue;
      const rank_t src = owners[l.neighbor];
      if (row[static_cast<std::size_t>(src)] == 0) touched.push_back(src);
      row[static_cast<std::size_t>(src)] += c;
    }
    for (const rank_t src : touched) {
      by_dst.push_back({src, view.rank, row[static_cast<std::size_t>(src)]});
      ++start[static_cast<std::size_t>(src) + 1];
      row[static_cast<std::size_t>(src)] = 0;
    }
    touched.clear();
  }
  for (std::size_t k = 0; k < nranks; ++k) start[k + 1] += start[k];
  std::vector<PairCells> cells(by_dst.size());
  for (const PairCells& p : by_dst)
    cells[start[static_cast<std::size_t>(p.src)]++] = p;
  return cells;
}

}  // namespace

std::int64_t partition_comm_cells(const PartitionResult& r, coord_t ghost) {
  SSAMR_REQUIRE(ghost >= 0, "ghost width must be non-negative");
  std::int64_t total = 0;
  for (const PairCells& p : ghost_flow_cells(r, ghost)) total += p.cells;
  return total;
}

std::vector<RankFlow> pairwise_comm_bytes(const PartitionResult& r,
                                          coord_t ghost, int ncomp) {
  SSAMR_REQUIRE(ghost >= 0, "ghost width must be non-negative");
  SSAMR_REQUIRE(ncomp >= 1, "ncomp must be >= 1");
  const auto n = r.assigned_work.size();
  const auto& as = r.assignments;
  // The historical all-pairs scan range-checked every owner as soon as two
  // assignments disagreed; preserve that contract.
  bool mixed = false;
  for (const BoxAssignment& a : as)
    if (a.owner != as.front().owner) mixed = true;
  if (mixed)
    for (const BoxAssignment& a : as)
      SSAMR_REQUIRE(a.owner >= 0 && static_cast<std::size_t>(a.owner) < n,
                    "owner out of range");
  const std::int64_t cell_bytes =
      static_cast<std::int64_t>(ncomp) *
      static_cast<std::int64_t>(sizeof(real_t));
  const std::vector<PairCells> cells = ghost_flow_cells(r, ghost);
  std::vector<RankFlow> flows;
  flows.reserve(cells.size());
  for (const PairCells& p : cells)
    flows.push_back({p.src, p.dst, p.cells * cell_bytes});
  return flows;
}

std::vector<RankFlow> ownership_transfer_flows(const PartitionResult& previous,
                                               const PartitionResult& next,
                                               std::int64_t cell_bytes) {
  SSAMR_REQUIRE(cell_bytes > 0, "cell_bytes must be positive");
  // One entry per moving overlap, then a single sort-and-merge by
  // (src, dst).  Contributions are positive, so no merged flow is zero.
  std::vector<RankFlow> flows;
  if (previous.assignments.empty()) {
    // Initial scatter from rank 0.
    for (const BoxAssignment& a : next.assignments)
      if (a.owner != 0 && a.box.cells() > 0)
        flows.push_back({0, a.owner, a.box.cells() * cell_bytes});
  } else {
    std::vector<Box> prev_boxes;
    prev_boxes.reserve(previous.assignments.size());
    for (const BoxAssignment& ob : previous.assignments)
      prev_boxes.push_back(ob.box);
    const SfcKeyIndex index(prev_boxes);
    std::vector<std::uint32_t> cand;
    for (const BoxAssignment& nb : next.assignments) {
      index.query(nb.box, cand);
      for (std::uint32_t j : cand) {
        const BoxAssignment& ob = previous.assignments[j];
        if (nb.owner == ob.owner) continue;
        // Cells in the overlap move from the old owner to the new one.
        flows.push_back({ob.owner, nb.owner,
                         nb.box.intersection(ob.box).cells() * cell_bytes});
      }
    }
  }
  std::sort(flows.begin(), flows.end(),
            [](const RankFlow& x, const RankFlow& y) {
              return std::tie(x.src, x.dst) < std::tie(y.src, y.dst);
            });
  std::size_t out = 0;
  for (const RankFlow& f : flows) {
    if (out > 0 && flows[out - 1].src == f.src && flows[out - 1].dst == f.dst)
      flows[out - 1].bytes += f.bytes;
    else
      flows[out++] = f;
  }
  flows.resize(out);
  return flows;
}

}  // namespace ssamr
