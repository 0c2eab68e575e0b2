#pragma once
/// \file oracle.hpp
/// Reference implementations the differential tests compare the library
/// against.  Each is the straightforward form of an algorithm whose
/// library version is optimized but must give identical results:
///
///   - coalesce: the pairwise face-merge that rescans from pair (0, 1)
///     after every merge;
///   - cluster_flags: Berger–Rigoutsos recursing over single flagged
///     cells (serial, sort + dedupe up front);
///   - boxes_at_epoch: the synthetic trace flagging cell by cell, with
///     two transcendental calls per row, and clustering with the oracle
///     above;
///   - gaussian_cloud / count_in: the particle cloud drawn in the
///     library's order and counted by testing every particle;
///   - sfc_partition: the capacity-weighted curve walk over one globally
///     sorted box list, where the library merges sorted curve shards;
///   - pairwise_comm_bytes / ownership_transfer_flows: the rank-to-rank
///     ghost and migration flows from an all-pairs box scan, merged in an
///     ordered map;
///   - simulate_transfers: the fluid network model stepped event by event,
///     re-rating and draining every in-flight transfer at each step.  The
///     library's indexed simulator groups the same arithmetic differently,
///     so the two agree to rounding, not bit for bit.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "amr/cluster_br.hpp"
#include "amr/particles.hpp"
#include "amr/trace_generator.hpp"
#include "cluster/network.hpp"
#include "geom/box.hpp"
#include "geom/box_list.hpp"
#include "geom/point.hpp"
#include "partition/metrics.hpp"
#include "partition/partitioner.hpp"
#include "sfc/sfc_index.hpp"
#include "sim/event.hpp"
#include "util/rng.hpp"

namespace ssamr::oracle {

// ---------------------------------------------------------------------------
// coalesce

/// True when a and b can merge into one box (equal bounds in all directions
/// except one, where they are exactly adjacent).
inline bool mergeable(const Box& a, const Box& b, Box& merged) {
  if (a.level() != b.level()) return false;
  int diff_axis = -1;
  for (int d = 0; d < kDim; ++d) {
    if (a.lo()[d] == b.lo()[d] && a.hi()[d] == b.hi()[d]) continue;
    if (diff_axis >= 0) return false;
    diff_axis = d;
  }
  if (diff_axis < 0) return false;
  const int d = diff_axis;
  if (a.hi()[d] + 1 == b.lo()[d] || b.hi()[d] + 1 == a.lo()[d]) {
    merged = bounding_union(a, b);
    return true;
  }
  return false;
}

inline std::vector<Box> coalesce(std::vector<Box> boxes) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size() && !changed; ++j) {
        Box merged;
        if (mergeable(boxes[i], boxes[j], merged)) {
          boxes[i] = merged;
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
  }
  return boxes;
}

// ---------------------------------------------------------------------------
// Berger–Rigoutsos over single cells

/// Which branches of the recursion a corpus took, summed over calls, so a
/// differential test can show that it reached every path the library
/// treats differently.
struct ClusterCensus {
  enum Kind { kHole, kInflection, kMidpoint };
  /// cuts[axis][kind]: the cuts each search found along each axis.
  std::array<std::array<std::int64_t, 3>, kDim> cuts{};
  /// x cuts with flags on both sides of the cut plane in one row, where
  /// cluster_runs splits a maximal run in two.
  std::int64_t run_splitting_x_cuts = 0;
  /// Leaves kept only because they reached max_depth.
  std::int64_t depth_leaves = 0;
  /// Leaves with no axis long enough to cut.
  std::int64_t uncuttable_leaves = 0;
};

namespace detail {

inline Box bbox_of(const std::vector<IntVec>& pts, std::size_t lo,
                   std::size_t hi, level_t level) {
  IntVec mn = pts[lo], mx = pts[lo];
  for (std::size_t i = lo + 1; i < hi; ++i) {
    mn = min(mn, pts[i]);
    mx = max(mx, pts[i]);
  }
  return Box(mn, mx, level);
}

inline std::vector<std::int64_t> signature(const std::vector<IntVec>& pts,
                                           std::size_t lo, std::size_t hi,
                                           const Box& b, int axis) {
  std::vector<std::int64_t> sig(static_cast<std::size_t>(b.extent()[axis]),
                                0);
  for (std::size_t i = lo; i < hi; ++i)
    ++sig[static_cast<std::size_t>(pts[i][axis] - b.lo()[axis])];
  return sig;
}

struct Cut {
  int axis = -1;
  coord_t offset = 0;
  bool found() const { return axis >= 0; }
};

inline Cut find_hole(const std::vector<IntVec>& pts, std::size_t lo,
                     std::size_t hi, const Box& b, coord_t min_size) {
  Cut best;
  real_t best_centrality = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size) continue;
    const auto sig = signature(pts, lo, hi, b, axis);
    for (coord_t c = min_size; c <= n - min_size; ++c) {
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

inline Cut find_inflection(const std::vector<IntVec>& pts, std::size_t lo,
                           std::size_t hi, const Box& b, coord_t min_size) {
  Cut best;
  std::int64_t best_jump = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size || n < 4) continue;
    const auto sig = signature(pts, lo, hi, b, axis);
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

inline Cut find_midpoint(const Box& b, coord_t min_size) {
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

/// True when some row holds flags at both x = split - 1 (in [lo, mid))
/// and x = split (in [mid, hi)).
inline bool row_straddles(const std::vector<IntVec>& pts, std::size_t lo,
                          std::size_t mid, std::size_t hi, coord_t split) {
  std::vector<std::pair<coord_t, coord_t>> left_rows;
  for (std::size_t i = lo; i < mid; ++i)
    if (pts[i].x == split - 1) left_rows.emplace_back(pts[i].y, pts[i].z);
  std::sort(left_rows.begin(), left_rows.end());
  for (std::size_t i = mid; i < hi; ++i)
    if (pts[i].x == split &&
        std::binary_search(left_rows.begin(), left_rows.end(),
                           std::make_pair(pts[i].y, pts[i].z)))
      return true;
  return false;
}

inline void cluster_recursive(std::vector<IntVec>& pts, std::size_t lo,
                              std::size_t hi, level_t level,
                              const ClusterConfig& cfg, int depth,
                              std::vector<Box>& out,
                              ClusterCensus* census) {
  const Box b = bbox_of(pts, lo, hi, level);
  const real_t eff =
      static_cast<real_t>(hi - lo) / static_cast<real_t>(b.cells());
  if (eff >= cfg.efficiency || b.cells() <= cfg.small_box_cells ||
      depth >= cfg.max_depth) {
    if (census && eff < cfg.efficiency && b.cells() > cfg.small_box_cells)
      ++census->depth_leaves;
    out.push_back(b);
    return;
  }
  auto kind = ClusterCensus::kHole;
  Cut cut = find_hole(pts, lo, hi, b, cfg.min_box_size);
  if (!cut.found()) {
    kind = ClusterCensus::kInflection;
    cut = find_inflection(pts, lo, hi, b, cfg.min_box_size);
  }
  if (!cut.found()) {
    kind = ClusterCensus::kMidpoint;
    cut = find_midpoint(b, cfg.min_box_size);
  }
  if (!cut.found()) {
    if (census) ++census->uncuttable_leaves;
    out.push_back(b);
    return;
  }
  const coord_t split_coord = b.lo()[cut.axis] + cut.offset;
  const auto mid_it = std::partition(
      pts.begin() + static_cast<std::ptrdiff_t>(lo),
      pts.begin() + static_cast<std::ptrdiff_t>(hi),
      [&](IntVec p) { return p[cut.axis] < split_coord; });
  const auto mid = static_cast<std::size_t>(mid_it - pts.begin());
  if (mid == lo || mid == hi) {
    out.push_back(b);
    return;
  }
  if (census) {
    ++census->cuts[static_cast<std::size_t>(cut.axis)][kind];
    if (cut.axis == 0 && row_straddles(pts, lo, mid, hi, split_coord))
      ++census->run_splitting_x_cuts;
  }
  cluster_recursive(pts, lo, mid, level, cfg, depth + 1, out, census);
  cluster_recursive(pts, mid, hi, level, cfg, depth + 1, out, census);
}

}  // namespace detail

/// `census`, when given, accumulates the branches the recursion took.
inline std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                                      level_t level,
                                      const ClusterConfig& cfg,
                                      ClusterCensus* census = nullptr) {
  if (flags.empty()) return {};
  std::vector<IntVec> pts = flags;
  std::sort(pts.begin(), pts.end(), [](IntVec a, IntVec b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  std::vector<Box> out;
  detail::cluster_recursive(pts, 0, pts.size(), level, cfg, 0, out, census);
  return out;
}

// ---------------------------------------------------------------------------
// Synthetic trace, flagged cell by cell

/// `census`, when given, accumulates the branches of every level's
/// clustering.
inline BoxList boxes_at_epoch(const TraceConfig& cfg, int epoch,
                              ClusterCensus* census = nullptr) {
  constexpr real_t kPi = 3.14159265358979323846;
  const SyntheticAmrTrace trace(cfg);
  BoxList out;
  out.push_back(cfg.domain);
  const real_t pos = trace.interface_position(epoch);
  const real_t amp0 = std::min(
      cfg.amplitude0 + cfg.growth * static_cast<real_t>(epoch),
      cfg.max_amplitude);
  const IntVec ext0 = cfg.domain.extent();
  std::vector<Box> parent_union{cfg.domain};
  for (int l = 0; l + 1 < cfg.max_levels; ++l) {
    coord_t scale = 1;
    for (int i = 0; i < l; ++i) scale *= kRefinementRatio;
    const real_t nx = static_cast<real_t>(ext0.x * scale);
    const real_t ny = static_cast<real_t>(ext0.y * scale);
    const real_t nz = static_cast<real_t>(ext0.z * scale);
    const real_t amp = amp0 * static_cast<real_t>(scale);
    const real_t halfw = cfg.band_halfwidth;
    std::vector<IntVec> flags;
    for (const Box& pb : parent_union) {
      for (coord_t k = pb.lo().z; k <= pb.hi().z; ++k) {
        for (coord_t j = pb.lo().y; j <= pb.hi().y; ++j) {
          const real_t yfrac = (static_cast<real_t>(j) + 0.5) / ny;
          const real_t zfrac = (static_cast<real_t>(k) + 0.5) / nz;
          const real_t xs =
              pos * nx + amp * (std::sin(2.0 * kPi * cfg.waves_y * yfrac) +
                                0.5 * std::cos(2.0 * kPi * cfg.waves_z *
                                               zfrac));
          const real_t band_lo = std::floor(xs - halfw);
          const real_t band_hi = std::ceil(xs + halfw);
          const real_t box_lo = static_cast<real_t>(pb.lo().x);
          const real_t box_hi = static_cast<real_t>(pb.hi().x);
          if (band_lo > box_hi || band_hi < box_lo) continue;
          const coord_t ilo =
              static_cast<coord_t>(std::clamp(band_lo, box_lo, box_hi));
          const coord_t ihi =
              static_cast<coord_t>(std::clamp(band_hi, box_lo, box_hi));
          for (coord_t i = ilo; i <= ihi; ++i) flags.emplace_back(i, j, k);
        }
      }
    }
    if (flags.empty()) break;
    const auto coarse_boxes = oracle::cluster_flags(
        flags, static_cast<level_t>(l), cfg.cluster, census);
    std::vector<Box> clipped;
    for (const Box& b : coarse_boxes)
      for (const Box& pb : parent_union) {
        const Box piece = b.intersection(pb);
        if (!piece.empty()) clipped.push_back(piece);
      }
    clipped = oracle::coalesce(std::move(clipped));
    std::vector<Box> next_union;
    for (const Box& b : clipped) {
      const Box fine = b.refined();
      out.push_back(fine);
      next_union.push_back(fine);
    }
    parent_union = std::move(next_union);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Particle cloud, counted by a scan of every particle

struct ParticleCloud {
  std::vector<real_t> xs, ys, zs;
};

namespace detail {

inline real_t reflect_into(real_t v, real_t span) {
  const real_t period = 2 * span;
  real_t r = std::fmod(v, period);
  if (r < 0) r += period;
  if (r >= span) r = period - r;
  if (r >= span) r = std::nextafter(span, real_t{0});
  return r;
}

/// lo + reflect_into(v, span), kept below the open upper face lo + span
/// (the sum rounds onto it when |lo| is large next to the gap).
inline real_t position(real_t lo, real_t v, real_t span) {
  return std::min(lo + reflect_into(v, span), std::nextafter(lo + span, lo));
}

}  // namespace detail

inline ParticleCloud gaussian_cloud(const Box& domain,
                                    const ParticleCloudConfig& cfg,
                                    real_t center_x) {
  ParticleCloud cloud;
  if (cfg.count == 0) return cloud;
  const IntVec ext = domain.extent();
  const real_t ex = static_cast<real_t>(ext.x);
  const real_t ey = static_cast<real_t>(ext.y);
  const real_t ez = static_cast<real_t>(ext.z);
  Rng rng(cfg.seed);
  for (std::int64_t i = 0; i < cfg.count; ++i) {
    const real_t px = rng.normal(center_x * ex, cfg.sigma_x);
    const real_t py = rng.normal(ey / 2, cfg.sigma_yz_frac * ey);
    const real_t pz = rng.normal(ez / 2, cfg.sigma_yz_frac * ez);
    cloud.xs.push_back(
        detail::position(static_cast<real_t>(domain.lo().x), px, ex));
    cloud.ys.push_back(
        detail::position(static_cast<real_t>(domain.lo().y), py, ey));
    cloud.zs.push_back(
        detail::position(static_cast<real_t>(domain.lo().z), pz, ez));
  }
  return cloud;
}

inline std::int64_t count_in(const ParticleCloud& cloud, const Box& b) {
  if (cloud.xs.empty() || b.empty()) return 0;
  real_t scale = 1;
  for (level_t l = 0; l < b.level(); ++l)
    scale *= static_cast<real_t>(kRefinementRatio);
  const real_t lox = static_cast<real_t>(b.lo().x);
  const real_t loy = static_cast<real_t>(b.lo().y);
  const real_t loz = static_cast<real_t>(b.lo().z);
  const real_t hix = static_cast<real_t>(b.hi().x + 1);
  const real_t hiy = static_cast<real_t>(b.hi().y + 1);
  const real_t hiz = static_cast<real_t>(b.hi().z + 1);
  std::int64_t count = 0;
  for (std::size_t i = 0; i < cloud.xs.size(); ++i) {
    const real_t sx = cloud.xs[i] * scale;
    if (sx < lox || sx >= hix) continue;
    const real_t sy = cloud.ys[i] * scale;
    if (sy < loy || sy >= hiy) continue;
    const real_t sz = cloud.zs[i] * scale;
    if (sz < loz || sz >= hiz) continue;
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Capacity-weighted curve walk, globally sorted

/// Same contract as DistributedSfcPartitioner::partition under the default
/// SfcConfig, at any shard count: the whole list sorted once by sfc_order,
/// the works folded left from 0 in input order, capacity_targets cut in
/// rank order, and one AssignmentWalk fed in curve order.
inline PartitionResult sfc_partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work, const PartitionConstraints& constraints = {}) {
  const real_t cap_sum = capacity_sum(capacities);
  std::vector<real_t> works;
  real_t total = 0;
  for (const Box& b : boxes) {
    works.push_back(box_work(b, work));
    total += works.back();
  }
  std::vector<rank_t> proc_order(capacities.size());
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});
  AssignmentWalk walk(capacity_targets(total, capacities, cap_sum),
                      proc_order, work, constraints);
  for (const std::size_t i : sfc_order(boxes.boxes(), SfcConfig{}))
    walk.feed(boxes[i], works[i]);
  return walk.take();
}

// ---------------------------------------------------------------------------
// Rank-to-rank flows, all pairs

namespace detail {
inline std::vector<RankFlow> flows_of(
    const std::map<std::pair<rank_t, rank_t>, std::int64_t>& bytes) {
  std::vector<RankFlow> out;
  for (const auto& [pair, b] : bytes)
    if (b > 0) out.push_back(RankFlow{pair.first, pair.second, b});
  return out;
}
}  // namespace detail

/// Same contract as ssamr::pairwise_comm_bytes (no input validation): for
/// every ordered pair of non-empty same-level boxes with different owners,
/// the cells of the first box's `ghost`-wide shell that the second covers
/// flow from the second's owner to the first's.
inline std::vector<RankFlow> pairwise_comm_bytes(const PartitionResult& r,
                                                 coord_t ghost, int ncomp) {
  const std::int64_t cell_bytes =
      ncomp * static_cast<std::int64_t>(sizeof(real_t));
  std::map<std::pair<rank_t, rank_t>, std::int64_t> bytes;
  for (const BoxAssignment& dst : r.assignments)
    for (const BoxAssignment& src : r.assignments) {
      if (dst.owner == src.owner || dst.box.empty() || src.box.empty() ||
          dst.box.level() != src.box.level())
        continue;
      const std::int64_t shell =
          dst.box.grown(ghost).intersection(src.box).cells() -
          dst.box.intersection(src.box).cells();
      if (shell > 0) bytes[{src.owner, dst.owner}] += shell * cell_bytes;
    }
  return detail::flows_of(bytes);
}

/// Same contract as ssamr::ownership_transfer_flows (no input validation):
/// every same-level overlap of a previous and a next box with different
/// owners moves old owner → new owner; an empty `previous` scatters every
/// box not owned by rank 0 from rank 0.
inline std::vector<RankFlow> ownership_transfer_flows(
    const PartitionResult& previous, const PartitionResult& next,
    std::int64_t cell_bytes) {
  std::map<std::pair<rank_t, rank_t>, std::int64_t> bytes;
  for (const BoxAssignment& nb : next.assignments) {
    if (previous.assignments.empty() && nb.owner != 0)
      bytes[{rank_t{0}, nb.owner}] += nb.box.cells() * cell_bytes;
    for (const BoxAssignment& ob : previous.assignments) {
      if (ob.box.level() != nb.box.level() || ob.owner == nb.owner) continue;
      const Box overlap = ob.box.intersection(nb.box);
      if (!overlap.empty())
        bytes[{ob.owner, nb.owner}] += overlap.cells() * cell_bytes;
    }
  }
  return detail::flows_of(bytes);
}

// ---------------------------------------------------------------------------
// Fluid network simulation, O(T) per event

/// Same contract as sim::simulate_transfers (finish times filled in, events
/// returned; no input validation).  Every event step scans ALL transfers:
/// each active one is re-rated at its current equal share, the step runs to
/// the earliest finish or admission, every active residual drains, and the
/// earliest finisher plus everything drained below 1e-6 bytes retires.
/// Admissions drain from a list stable-sorted by entry time, so ties are
/// admitted in transfer order.
inline std::size_t simulate_transfers(
    std::vector<sim::Transfer>& transfers,
    const std::vector<MbitsPerSec>& deliverable_mbps,
    const NetworkModel& net) {
  const std::size_t n = deliverable_mbps.size();
  std::vector<real_t> cap(n, 0);
  for (std::size_t k = 0; k < n; ++k)
    cap[k] =
        std::max(NetworkModel::kMinBandwidthMbps, deliverable_mbps[k]).value() *
        1.0e6 / 8.0;

  struct Start {
    real_t time;
    std::size_t id;
  };
  std::vector<Start> starts;
  std::vector<real_t> remaining(transfers.size(), 0);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    sim::Transfer& tr = transfers[i];
    if (tr.bytes == Bytes{0} || tr.src == tr.dst) {
      tr.finish_time = tr.post_time;
      continue;
    }
    remaining[i] = static_cast<real_t>(tr.bytes.value());
    starts.push_back({(tr.post_time + net.latency_s).value(), i});
  }
  std::stable_sort(starts.begin(), starts.end(),
                   [](const Start& a, const Start& b) {
                     return a.time < b.time;
                   });

  std::vector<char> active(transfers.size(), 0);
  std::vector<int> tx_degree(n, 0);
  std::vector<int> rx_degree(n, 0);
  std::vector<real_t> rate(transfers.size(), 0);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  real_t now = 0;
  std::size_t next_start = 0;
  std::size_t n_active = 0;
  std::size_t events = 0;

  while (n_active > 0 || next_start < starts.size()) {
    if (n_active == 0) now = std::max(now, starts[next_start].time);
    while (next_start < starts.size() && starts[next_start].time <= now) {
      const std::size_t i = starts[next_start++].id;
      active[i] = 1;
      ++n_active;
      ++tx_degree[static_cast<std::size_t>(transfers[i].src)];
      ++rx_degree[static_cast<std::size_t>(transfers[i].dst)];
      ++events;
    }
    real_t dt_finish = inf;
    std::size_t first_done = transfers.size();
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (active[i] == 0) continue;
      const auto s = static_cast<std::size_t>(transfers[i].src);
      const auto d = static_cast<std::size_t>(transfers[i].dst);
      rate[i] = net.efficiency.value() *
                std::min(cap[s] / tx_degree[s], cap[d] / rx_degree[d]);
      const real_t dt = remaining[i] / rate[i];
      if (dt < dt_finish) {
        dt_finish = dt;
        first_done = i;
      }
    }
    const real_t dt_start =
        next_start < starts.size() ? starts[next_start].time - now : inf;
    const real_t dt = std::min(dt_finish, dt_start);
    for (std::size_t i = 0; i < transfers.size(); ++i)
      if (active[i] != 0) remaining[i] -= rate[i] * dt;
    now += dt;
    if (dt_finish <= dt_start) {
      for (std::size_t i = 0; i < transfers.size(); ++i) {
        if (active[i] == 0) continue;
        if (i == first_done || remaining[i] <= 1e-6) {
          active[i] = 0;
          --n_active;
          --tx_degree[static_cast<std::size_t>(transfers[i].src)];
          --rx_degree[static_cast<std::size_t>(transfers[i].dst)];
          transfers[i].finish_time = Seconds{now};
          ++events;
        }
      }
    }
  }
  return events;
}

}  // namespace ssamr::oracle
