#include "amr/cluster_br.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <future>
#include <iterator>
#include <numeric>
#include <span>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

namespace {

coord_t run_length(const FlagRun& r) { return r.x1 - r.x0 + 1; }

std::int64_t flag_count(std::span<const FlagRun> runs) {
  std::int64_t n = 0;
  for (const FlagRun& r : runs) n += run_length(r);
  return n;
}

/// Per-plane flag counts of a node's runs along each axis the box can be
/// cut along (n >= 2 · min_size); the other axes stay empty.  Computed
/// once per node and read by both the hole and the inflection search.
using Signatures = std::array<std::vector<std::int64_t>, kDim>;

Signatures signatures(std::span<const FlagRun> runs, const Box& b,
                      coord_t min_size) {
  const IntVec lo = b.lo();
  const IntVec n = b.extent();
  const bool cut_x = n.x >= 2 * min_size;
  const bool cut_y = n.y >= 2 * min_size;
  const bool cut_z = n.z >= 2 * min_size;
  Signatures sig;
  // x: a run covers a contiguous plane range, so mark its ends in a
  // difference array (one spare slot past the last plane) and prefix-sum.
  if (cut_x) sig[0].assign(static_cast<std::size_t>(n.x) + 1, 0);
  if (cut_y) sig[1].assign(static_cast<std::size_t>(n.y), 0);
  if (cut_z) sig[2].assign(static_cast<std::size_t>(n.z), 0);
  for (const FlagRun& r : runs) {
    if (cut_x) {
      ++sig[0][static_cast<std::size_t>(r.x0 - lo.x)];
      --sig[0][static_cast<std::size_t>(r.x1 - lo.x + 1)];
    }
    if (cut_y) sig[1][static_cast<std::size_t>(r.y - lo.y)] += run_length(r);
    if (cut_z) sig[2][static_cast<std::size_t>(r.z - lo.z)] += run_length(r);
  }
  if (cut_x) {
    std::partial_sum(sig[0].begin(), sig[0].end(), sig[0].begin());
    sig[0].pop_back();
  }
  return sig;
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

void cluster_recursive(std::span<FlagRun> runs, level_t level,
                       const ClusterConfig& cfg, int depth,
                       std::vector<Box>& out) {
  SSAMR_ASSERT(!runs.empty(), "empty node in cluster_recursive");
  IntVec mn(runs[0].x0, runs[0].y, runs[0].z);
  IntVec mx(runs[0].x1, runs[0].y, runs[0].z);
  std::int64_t count = 0;
  for (const FlagRun& r : runs) {
    mn = min(mn, IntVec(r.x0, r.y, r.z));
    mx = max(mx, IntVec(r.x1, r.y, r.z));
    count += run_length(r);
  }
  const Box b(mn, mx, level);
  const real_t eff =
      static_cast<real_t>(count) / static_cast<real_t>(b.cells());
  if (eff >= cfg.efficiency || b.cells() <= cfg.small_box_cells ||
      depth >= cfg.max_depth) {
    out.push_back(b);
    return;
  }

  const Signatures sigs = signatures(runs, b, cfg.min_box_size);
  Cut cut = find_hole(sigs, b, cfg.min_box_size);
  if (!cut.found()) cut = find_inflection(sigs, b, cfg.min_box_size);
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
  std::span<FlagRun> left, right;
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
    left = runs.first(keep);
    right = right_runs;
  } else {
    const auto mid =
        std::partition(runs.begin(), runs.end(), [&](const FlagRun& r) {
          return (cut.axis == 1 ? r.y : r.z) < split_coord;
        });
    left = runs.first(static_cast<std::size_t>(mid - runs.begin()));
    right = runs.subspan(left.size());
  }
  if (left.empty() || right.empty()) {
    out.push_back(b);  // degenerate cut (all flags on one side)
    return;
  }

  // Fork-join over the two disjoint slices when the left one holds enough
  // flags to pay for a task.  Each side writes its own vector; appending
  // left-then-right reproduces the serial depth-first output order
  // exactly, so box lists are bit-identical at any thread count.
  constexpr std::int64_t kForkThreshold = 1024;
  ThreadPool& pool = ThreadPool::global();
  if (pool.worker_count() > 0 && flag_count(left) >= kForkThreshold) {
    std::vector<Box> left_boxes;
    std::future<void> fut = pool.async([left, level, &cfg, depth,
                                        &left_boxes] {
      cluster_recursive(left, level, cfg, depth + 1, left_boxes);
    });
    std::vector<Box> right_boxes;
    cluster_recursive(right, level, cfg, depth + 1, right_boxes);
    pool.wait(fut);
    out.insert(out.end(), std::make_move_iterator(left_boxes.begin()),
               std::make_move_iterator(left_boxes.end()));
    out.insert(out.end(), std::make_move_iterator(right_boxes.begin()),
               std::make_move_iterator(right_boxes.end()));
    return;
  }
  cluster_recursive(left, level, cfg, depth + 1, out);
  cluster_recursive(right, level, cfg, depth + 1, out);
}

}  // namespace

std::vector<Box> cluster_runs(std::vector<FlagRun> runs, level_t level,
                              const ClusterConfig& cfg) {
  SSAMR_REQUIRE(cfg.efficiency > 0 && cfg.efficiency <= 1,
                "efficiency must be in (0,1]");
  SSAMR_REQUIRE(cfg.min_box_size >= 1, "min box size must be >= 1");
  for (const FlagRun& r : runs)
    SSAMR_REQUIRE(r.x0 <= r.x1, "flag runs must be non-empty");
  if (runs.empty()) return {};
  std::vector<Box> out;
  cluster_recursive(runs, level, cfg, 0, out);
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
