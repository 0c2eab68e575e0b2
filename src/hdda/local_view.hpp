#pragma once
/// \file local_view.hpp
/// Rank-local box metadata: the primary representation of ownership at
/// scale (DESIGN.md §11).
///
/// Following Schornbaum & Rüde (*Extreme-Scale Block-Structured AMR*), no
/// rank needs the global box list to run a step: it needs (a) the boxes it
/// owns and (b) a Morton-keyed halo — the neighbor boxes, owned elsewhere,
/// whose ghost regions touch its own.  A LocalBoxView is exactly that
/// record.  The scale experiment and perfbench's scale-event workload
/// build them for every rank; the comm-volume metrics need only the
/// per-rank-pair sums, so they run the same key-index queries without
/// materializing views (partition/metrics.cpp).  The global composite list
/// remains available only as a debug/audit construct
/// (GridHierarchy::composite_box_list, the partition audits).
///
/// Views are built with anchor-window queries against SfcKeyIndex — one
/// query per owned box — so construction is O(N · (log N + k)) for k-bounded
/// neighborhoods instead of the historical all-to-all O(N²) scan, and the
/// per-rank footprint is O(owned + halo), independent of the global box
/// count.

#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "sfc/key_index.hpp"
#include "util/types.hpp"

namespace ssamr {

/// One neighbor box in a rank's halo.
struct HaloBox {
  std::uint32_t id = 0;  ///< global box id (position in the build input)
  rank_t owner = -1;     ///< rank storing the box
  key_t key = 0;         ///< Morton anchor key (SfcKeyIndex::anchor_key)

  bool operator==(const HaloBox&) const = default;
};

/// One adjacency: an owned box whose ghost shell touches a neighbor box.
struct NeighborLink {
  std::uint32_t owned = 0;     ///< global id of the owned box
  std::uint32_t neighbor = 0;  ///< global id of the touching box

  bool operator==(const NeighborLink&) const = default;
};

/// Everything one rank must know about the box layout.
struct LocalBoxView {
  rank_t rank = 0;
  /// Boxes this rank owns, as ascending global ids.
  std::vector<std::uint32_t> owned;
  /// Neighbor boxes owned by other ranks whose extent intersects the
  /// ghost-grown region of an owned box, deduplicated and sorted by
  /// (Morton key, id) — curve order, the deterministic iteration order of
  /// everything derived from a halo.
  std::vector<HaloBox> halo;
  /// The individual (owned, neighbor) adjacencies behind the halo, in
  /// ascending (owned, neighbor) order.  Includes same-rank pairs'
  /// *exclusion*: only cross-rank adjacencies are recorded, so iterating
  /// links enumerates exactly the remote ghost-exchange pairs.
  std::vector<NeighborLink> links;
};

/// Build every rank's local view of (boxes, owners): for each box, its
/// same-level neighbors within `ghost` cells are discovered through
/// `index` (which must have been built over the same `boxes` vector).
/// Owners must lie in [0, nranks).
std::vector<LocalBoxView> build_local_views(const std::vector<Box>& boxes,
                                            const std::vector<rank_t>& owners,
                                            int nranks, coord_t ghost,
                                            const SfcKeyIndex& index);

}  // namespace ssamr
