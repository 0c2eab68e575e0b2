#include "amr/cluster_br.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <span>
#include <utility>

#include "util/error.hpp"

namespace ssamr {

namespace {

coord_t run_length(const FlagRun& r) { return r.x1 - r.x0 + 1; }

/// Per-plane flag counts of a node's cells along each axis, plane 0 at the
/// node's box lo.  A node's box is the non-zero range of its signatures
/// and its flag count their sum, so a node gets its box, count and
/// signatures from its parent instead of reading its runs (see
/// derive_children).
using Signature = std::vector<std::int64_t>;
using Signatures = std::array<Signature, kDim>;

/// Signatures of `runs` over `n` planes per axis, plane 0 at `lo`, along
/// every axis but `skip` (-1 for none); the skipped one stays empty.
Signatures signatures(std::span<const FlagRun> runs, IntVec lo, IntVec n,
                      int skip) {
  const bool want_x = skip != 0;
  const bool want_y = skip != 1;
  const bool want_z = skip != 2;
  Signatures sig;
  // x: a run covers a contiguous plane range, so mark its ends in a
  // difference array (one spare slot past the last plane) and prefix-sum.
  if (want_x) sig[0].assign(static_cast<std::size_t>(n.x) + 1, 0);
  if (want_y) sig[1].assign(static_cast<std::size_t>(n.y), 0);
  if (want_z) sig[2].assign(static_cast<std::size_t>(n.z), 0);
  for (const FlagRun& r : runs) {
    if (want_x) {
      ++sig[0][static_cast<std::size_t>(r.x0 - lo.x)];
      --sig[0][static_cast<std::size_t>(r.x1 - lo.x + 1)];
    }
    if (want_y) sig[1][static_cast<std::size_t>(r.y - lo.y)] += run_length(r);
    if (want_z) sig[2][static_cast<std::size_t>(r.z - lo.z)] += run_length(r);
  }
  if (want_x) {
    std::partial_sum(sig[0].begin(), sig[0].end(), sig[0].begin());
    sig[0].pop_back();
  }
  return sig;
}

/// Trim `sig` (plane 0 at `lo`) to its non-zero planes and return the box
/// they span: the bounding box of the cells the signatures count.
Box tighten(Signatures& sig, IntVec lo, level_t level) {
  const auto nonzero = [](std::int64_t v) { return v != 0; };
  IntVec hi;
  for (int d = 0; d < kDim; ++d) {
    Signature& s = sig[static_cast<std::size_t>(d)];
    const auto first = std::find_if(s.begin(), s.end(), nonzero);
    const auto last = std::find_if(s.rbegin(), s.rend(), nonzero).base();
    lo.at(d) += static_cast<coord_t>(first - s.begin());
    hi.at(d) = lo[d] + static_cast<coord_t>(last - first) - 1;
    s.erase(last, s.end());
    s.erase(s.begin(), first);
  }
  return Box(lo, hi, level);
}

struct Cut {
  int axis = -1;
  coord_t offset = 0;  // split offset within the box (first piece size)
  bool found() const { return axis >= 0; }
};

/// Find the most central zero-signature plane usable as a cut.
Cut find_hole(const Signatures& sigs, const Box& b, coord_t min_size) {
  Cut best;
  real_t best_centrality = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size) continue;
    const auto& sig = sigs[static_cast<std::size_t>(axis)];
    for (coord_t c = min_size; c <= n - min_size; ++c) {
      // Cutting at offset c puts planes [0,c) left, [c,n) right.  A hole at
      // plane c-1 or c makes the cut clean; we just need a zero plane whose
      // cut position respects the margins.
      if (sig[static_cast<std::size_t>(c)] != 0 &&
          sig[static_cast<std::size_t>(c - 1)] != 0)
        continue;
      const real_t centrality =
          1.0 - std::abs(static_cast<real_t>(2 * c - n)) /
                    static_cast<real_t>(n);
      if (centrality > best_centrality) {
        best_centrality = centrality;
        best.axis = axis;
        best.offset = c;
      }
    }
  }
  return best;
}

/// Find the strongest inflection (sign change of the signature Laplacian).
Cut find_inflection(const Signatures& sigs, const Box& b, coord_t min_size) {
  Cut best;
  std::int64_t best_jump = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size || n < 4) continue;
    const auto& sig = sigs[static_cast<std::size_t>(axis)];
    // Laplacian on interior planes: lap[i] = sig[i-1] - 2 sig[i] + sig[i+1]
    std::vector<std::int64_t> lap(sig.size(), 0);
    for (std::size_t i = 1; i + 1 < sig.size(); ++i)
      lap[i] = sig[i - 1] - 2 * sig[i] + sig[i + 1];
    for (coord_t c = std::max<coord_t>(min_size, 2);
         c <= std::min<coord_t>(n - min_size, n - 2); ++c) {
      const std::int64_t a = lap[static_cast<std::size_t>(c - 1)];
      const std::int64_t d = lap[static_cast<std::size_t>(c)];
      if ((a < 0 && d > 0) || (a > 0 && d < 0)) {
        const std::int64_t jump = std::abs(a - d);
        if (jump > best_jump) {
          best_jump = jump;
          best.axis = axis;
          best.offset = c;
        }
      }
    }
  }
  return best;
}

/// Midpoint cut along the longest axis that can be cut.
Cut find_midpoint(const Box& b, coord_t min_size) {
  Cut cut;
  coord_t best_extent = 0;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n >= 2 * min_size && n > best_extent) {
      best_extent = n;
      cut.axis = axis;
      cut.offset = n / 2;
    }
  }
  return cut;
}

/// One node of the recursion: its runs, the bounding box and number of
/// their cells, and their signatures over that box (empty at the root
/// until it is cut).
struct Node {
  std::span<FlagRun> runs;
  Box box;
  std::int64_t count = 0;
  Signatures sig;
};

/// Fill in both children of `parent`'s cut from their runs.  Along the cut
/// axis, each child's signature is its slice of the parent's.  Along the
/// other two, the child with fewer flags adds up its runs, and the other
/// takes the parent's arrays minus that: integer counts, so exact.
void derive_children(Node& parent, const Cut& cut, Node& left, Node& right) {
  const int a = cut.axis;
  const auto c = static_cast<std::ptrdiff_t>(cut.offset);
  const IntVec n = parent.box.extent();
  Signature& cut_sig = parent.sig[static_cast<std::size_t>(a)];
  left.count = std::accumulate(cut_sig.begin(), cut_sig.begin() + c,
                               std::int64_t{0});
  right.count = parent.count - left.count;
  // The box is tight and 1 <= offset < extent, so both sides hold flags.
  SSAMR_ASSERT(left.count > 0 && right.count > 0, "degenerate cut");

  const IntVec left_lo = parent.box.lo();
  IntVec right_lo = left_lo;
  right_lo.at(a) += cut.offset;
  const bool left_smaller = left.count <= right.count;
  Node& small = left_smaller ? left : right;
  Node& large = left_smaller ? right : left;
  IntVec small_n = n;
  small_n.at(a) = left_smaller ? cut.offset : n[a] - cut.offset;
  small.sig = signatures(small.runs, left_smaller ? left_lo : right_lo,
                         small_n, a);
  large.sig = std::move(parent.sig);
  for (std::size_t d = 0; d < kDim; ++d) {
    if (static_cast<int>(d) == a) continue;
    for (std::size_t i = 0; i < large.sig[d].size(); ++i)
      large.sig[d][i] -= small.sig[d][i];
  }
  Signature& large_cut = large.sig[static_cast<std::size_t>(a)];
  Signature& small_cut = small.sig[static_cast<std::size_t>(a)];
  if (left_smaller) {
    small_cut.assign(large_cut.begin(), large_cut.begin() + c);
    large_cut.erase(large_cut.begin(), large_cut.begin() + c);
  } else {
    small_cut.assign(large_cut.begin() + c, large_cut.end());
    large_cut.resize(static_cast<std::size_t>(c));
  }
  left.box = tighten(left.sig, left_lo, parent.box.level());
  right.box = tighten(right.sig, right_lo, parent.box.level());
}

void cluster_recursive(Node node, const ClusterConfig& cfg, int depth,
                       std::vector<Box>& out) {
  const Box& b = node.box;
  const real_t eff =
      static_cast<real_t>(node.count) / static_cast<real_t>(b.cells());
  if (eff >= cfg.efficiency || b.cells() <= cfg.small_box_cells ||
      depth >= cfg.max_depth) {
    out.push_back(b);
    return;
  }
  // Only the root arrives without signatures: accepting it needed just
  // its box and count.
  if (node.sig[0].empty())
    node.sig = signatures(node.runs, b.lo(), b.extent(), -1);

  Cut cut = find_hole(node.sig, b, cfg.min_box_size);
  if (!cut.found()) cut = find_inflection(node.sig, b, cfg.min_box_size);
  if (!cut.found()) cut = find_midpoint(b, cfg.min_box_size);
  if (!cut.found()) {
    out.push_back(b);  // nothing can be cut without violating min size
    return;
  }

  // Cells below the cut plane go left, the rest right.  A y or z cut moves
  // whole runs, so it partitions the node's slice in place.  An x cut
  // splits the runs that straddle it: their left pieces compact in place,
  // and their right pieces join the right-only runs in an exactly sized
  // vector that this frame owns until both sides are clustered.
  const coord_t split_coord = b.lo()[cut.axis] + cut.offset;
  std::span<FlagRun> runs = node.runs;
  Node left, right;
  std::vector<FlagRun> right_runs;
  if (cut.axis == 0) {
    right_runs.reserve(static_cast<std::size_t>(
        std::count_if(runs.begin(), runs.end(), [&](const FlagRun& r) {
          return r.x1 >= split_coord;
        })));
    std::size_t keep = 0;
    for (const FlagRun r : runs) {  // a copy: runs[keep] may be this slot
      if (r.x1 < split_coord) {
        runs[keep++] = r;
      } else if (r.x0 >= split_coord) {
        right_runs.push_back(r);
      } else {
        runs[keep++] = FlagRun{r.x0, split_coord - 1, r.y, r.z};
        right_runs.push_back(FlagRun{split_coord, r.x1, r.y, r.z});
      }
    }
    left.runs = runs.first(keep);
    right.runs = right_runs;
  } else {
    const auto mid =
        std::partition(runs.begin(), runs.end(), [&](const FlagRun& r) {
          return (cut.axis == 1 ? r.y : r.z) < split_coord;
        });
    left.runs = runs.first(static_cast<std::size_t>(mid - runs.begin()));
    right.runs = runs.subspan(left.runs.size());
  }
  // The parent's arrays become the larger child's, so a frame holds at
  // most one pending child's signatures while the other recurses.
  derive_children(node, cut, left, right);
  cluster_recursive(std::move(left), cfg, depth + 1, out);
  cluster_recursive(std::move(right), cfg, depth + 1, out);
}

}  // namespace

std::vector<Box> cluster_runs(std::vector<FlagRun> runs, level_t level,
                              const ClusterConfig& cfg) {
  SSAMR_REQUIRE(cfg.efficiency > 0 && cfg.efficiency <= 1,
                "efficiency must be in (0,1]");
  SSAMR_REQUIRE(cfg.min_box_size >= 1, "min box size must be >= 1");
  if (runs.empty()) return {};
  // One pass validates the runs and finds the root's box and count; its
  // signatures wait until the root turns out to need a cut.
  IntVec mn(runs[0].x0, runs[0].y, runs[0].z);
  IntVec mx(runs[0].x1, runs[0].y, runs[0].z);
  std::int64_t count = 0;
  for (const FlagRun& r : runs) {
    SSAMR_REQUIRE(r.x0 <= r.x1, "flag runs must be non-empty");
    mn = min(mn, IntVec(r.x0, r.y, r.z));
    mx = max(mx, IntVec(r.x1, r.y, r.z));
    count += run_length(r);
  }
  std::vector<Box> out;
  cluster_recursive(Node{runs, Box(mn, mx, level), count, {}}, cfg, 0, out);
  return out;
}

std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                               level_t level, const ClusterConfig& cfg) {
  const auto zyx_less = [](IntVec a, IntVec b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  };
  std::vector<IntVec> sorted_copy;
  const std::vector<IntVec>* pts = &flags;
  if (!std::is_sorted(flags.begin(), flags.end(), zyx_less)) {
    sorted_copy = flags;
    std::sort(sorted_copy.begin(), sorted_copy.end(), zyx_less);
    pts = &sorted_copy;
  }
  // Pack each row's consecutive cells into one run.  In (z, y, x) order a
  // duplicate lands on its run's last cell, so packing also deduplicates
  // (duplicates would inflate the efficiency estimate).
  std::vector<FlagRun> runs;
  for (const IntVec& p : *pts) {
    if (!runs.empty()) {
      FlagRun& last = runs.back();
      if (last.y == p.y && last.z == p.z && p.x <= last.x1 + 1) {
        last.x1 = p.x;
        continue;
      }
    }
    runs.push_back(FlagRun{p.x, p.x, p.y, p.z});
  }
  return cluster_runs(std::move(runs), level, cfg);
}

}  // namespace ssamr
