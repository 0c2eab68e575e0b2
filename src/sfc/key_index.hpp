#pragma once
/// \file key_index.hpp
/// Anchor-row spatial index for neighbor discovery at scale.
///
/// The historical neighbor-discovery paths (ghost planning, comm-volume
/// metrics, migration overlap) scan every box against every other box —
/// O(N²) — which caps the virtual cluster far below real machine sizes.
/// This index realizes the Schornbaum & Rüde design point instead: a box is
/// found through its *anchor*, its low corner.  Per refinement level the
/// anchors are sorted by (z, y, x, id) and grouped into rows, one row per
/// distinct (z, y) pointing at its run of (x, id) entries.
///
/// A box at the query's level intersects the region iff its anchor lies in
/// the *anchor window* [region.lo − (max_extent − 1), region.hi] — the
/// region widened low-side by the level's largest box extent — and its high
/// corner reaches region.lo.  A query visits exactly the window: for each
/// z-plane holding anchors, one binary search finds the first row at the
/// window's low y and the rows up to its high y follow; in each row, one
/// binary search finds the first x inside the window and the scan stops
/// past its high x.  That is O(planes · log rows + rows · log run + k) for
/// k anchors in the window, and on a level whose boxes all share one
/// extent every anchor in the window is a true neighbor.
///
/// Anchors keep a Morton key (anchor_key): the low corner, shifted by the
/// level's bias (its minimum low corner, so negative or far offset domains
/// still fit the non-negative 21-bit Morton cube), interleaved on the
/// Z-order curve.  It orders nothing here; it gives the local-view halos
/// their deterministic curve order.
///
/// Determinism: queries return ids in ascending order, so downstream
/// consumers that iterate candidates reproduce the historical ascending
/// all-pairs scan order exactly.  Query statistics are accumulated in a
/// mutable counter; concurrent queries on one instance must use the
/// overload taking an explicit stats accumulator (the index itself is
/// read-only during queries) and may merge_stats() their accumulators
/// back afterwards — integer sums, so the merged totals are independent
/// of thread count.

#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "sfc/morton.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Query-efficiency counters (exp_scale reports them; tests pin that the
/// anchor window is exact on uniform lattices).
struct SfcKeyIndexStats {
  std::int64_t queries = 0;     ///< range queries served
  std::int64_t candidates = 0;  ///< anchors inside the query window
  std::int64_t hits = 0;        ///< candidates intersecting the region
};

/// Anchor-row range index over a set of boxes.
class SfcKeyIndex {
 public:
  /// Index `boxes` (ids are positions in the vector; empty boxes are
  /// skipped).
  explicit SfcKeyIndex(const std::vector<Box>& boxes);

  /// Ids (ascending) of indexed boxes at region.level() that intersect
  /// `region`.  An empty region matches nothing.
  std::vector<std::uint32_t> query(const Box& region) const;

  /// As above, appending into `out` (cleared first) to reuse capacity in
  /// hot loops.
  void query(const Box& region, std::vector<std::uint32_t>& out) const;

  /// As above, accumulating counters into `stats` instead of the index's
  /// own — the thread-safe form (the index is read-only here).
  void query(const Box& region, std::vector<std::uint32_t>& out,
             SfcKeyIndexStats& stats) const;

  /// Fold an external accumulator (from the thread-safe query form) into
  /// this index's counters.
  void merge_stats(const SfcKeyIndexStats& s) const;

  /// Morton key of a box's level-biased low corner — the canonical halo
  /// ordering key of the local-view layer.
  key_t anchor_key(std::uint32_t id) const;

  std::size_t size() const { return boxes_.size(); }
  const SfcKeyIndexStats& stats() const { return stats_; }

 private:
  /// One anchor in a row: the box's low x and its id.
  struct Anchor {
    coord_t x;
    std::uint32_t id;
  };
  /// The anchors sharing one low (z, y); they occupy
  /// anchors[begin, next row's begin).
  struct Row {
    coord_t z;
    coord_t y;
    std::uint32_t begin;
  };
  struct LevelIndex {
    IntVec bias;        ///< minimum low corner over the level's boxes
    IntVec max_extent;  ///< per-dimension maximum box extent
    std::vector<Anchor> anchors;  ///< sorted by (z, y, x, id)
    std::vector<Row> rows;  ///< sorted by (z, y), plus an end sentinel
  };

  std::vector<Box> boxes_;
  std::vector<LevelIndex> levels_;  ///< indexed by refinement level
  mutable SfcKeyIndexStats stats_;
};

}  // namespace ssamr
