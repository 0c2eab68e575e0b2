#pragma once
/// \file particles.hpp
/// Deterministic particle clouds for the dual-constraint cost model.
///
/// The AMReX load-balancing study (PAPERS.md) shows that partitioner
/// rankings flip once particles impose a second cost constraint besides
/// cells: a box's load is then cells + particles it carries, and particle
/// density is far less uniform than cell count.  A ParticleField is a
/// seeded cloud of particle positions in *base-level* cell coordinates,
/// placed at a center along x; the work model (amr/workload.hpp) counts
/// the particles a box covers and prices them alongside its cells.
///
/// Two properties the partition audits rely on:
///   * Determinism: equal (config, center) always produces the identical
///     particle set (util/rng.hpp, fixed draw order).
///   * Exact additivity: a particle lies in a level-l box iff its scaled
///     position p * kRefinementRatio^l falls in the box's half-open index
///     interval [lo, hi+1) per dimension.  Splitting a box partitions that
///     integer interval, so counts over split pieces sum to the parent's
///     count exactly — particle work is conserved bit-for-bit under
///     splitting.
///
/// Counting is sublinear: the field keeps its particles grouped into the
/// buckets of a uniform grid over the cloud, each with the tight per-axis
/// bounds of its particles, and count_in tests single particles only in
/// the buckets that straddle the box.  Multiplying by a positive scale is
/// monotone in IEEE arithmetic, so a bucket whose scaled bounds lie inside
/// (or outside) the interval holds only particles that the per-particle
/// test accepts (or rejects): counts equal a scan of every particle, at
/// every level.
///
/// A cloud is drawn and indexed once and then placed: along x the field
/// keeps each particle's draw offset t = sigma_x * n from the center, and
/// the grid's x axis runs over t, so the draws, the counting sort and the
/// y/z bounds do not depend on the center.  place() moves the cloud to a
/// new center in O(buckets): a bucket no wall reflects gets its x bounds
/// from its extreme offsets (IEEE addition is monotone, so they are exact),
/// and a bucket a wall reflects is placed particle by particle.  Every
/// placement counts exactly as a fresh draw at that center.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Parameters of a deterministic Gaussian particle cloud.
struct ParticleCloudConfig {
  /// Number of particles, below 2^32; 0 disables the field entirely.
  std::int64_t count = 0;
  /// Seed for the position draws; equal seeds give identical clouds.
  std::uint64_t seed = 0x9a271e5ULL;
  /// Standard deviation of the cloud along x, in base-level cells.
  real_t sigma_x = 6.0;
  /// Standard deviation across y and z as a fraction of each extent
  /// (particles concentrate toward the transverse center of the domain).
  real_t sigma_yz_frac = 0.25;
};

/// A drawn particle cloud in base-level cell coordinates, placed at a
/// center along x.
class ParticleField {
 public:
  ParticleField() = default;

  /// A Gaussian cloud centered at `center_x` (fraction of the domain
  /// x-extent) inside `base_domain` (a level-0 box): drawn, indexed, then
  /// placed at `center_x`.  Positions falling outside the domain are
  /// reflected back in, so the count is always exactly cfg.count.  Equal
  /// (domain, cfg, center_x) yields the bit-identical cloud.  `center_x`,
  /// `cfg.sigma_x` and `cfg.sigma_yz_frac`, the center and spreads scaled
  /// to cells, and every draw must be finite.
  static ParticleField gaussian_cloud(const Box& base_domain,
                                      const ParticleCloudConfig& cfg,
                                      real_t center_x);

  /// Move the cloud to `center_x`, translating every particle coherently
  /// (the drift of a moving cloud): afterwards every count equals that of
  /// gaussian_cloud(domain, cfg, center_x).  Touches O(buckets) state plus
  /// the particles of buckets a wall reflects.  The center scaled to cells
  /// must be finite, and so must every particle's offset from it.
  void place(real_t center_x);

  /// Number of particles inside box `b` (level `b.level()`, refinement
  /// kRefinementRatio between levels) at the current placement.  Exactly
  /// additive over same-level splits.
  std::int64_t count_in(const Box& b) const;

  std::int64_t size() const {
    return static_cast<std::int64_t>(pos_[0].size());
  }
  bool empty() const { return pos_[0].empty(); }

 private:
  /// One grid cell of the index: its particles are pos_[d][begin, end),
  /// and lo/hi are their exact per-axis extremes (of t along x).
  struct Bucket {
    std::array<real_t, kDim> lo{}, hi{};
    std::uint32_t begin = 0, end = 0;
  };
  /// Exact extremes of placed x over a set of particles.
  struct Span {
    real_t lo = 0, hi = 0;
  };

  /// Groups pos_ by bucket (a counting sort) and records bucket bounds;
  /// lo/hi bound every particle.
  void build_index(const std::array<real_t, kDim>& lo,
                   const std::array<real_t, kDim>& hi);
  /// Grid index along `axis` of drawn coordinate `v`, moved by `pad`
  /// buckets and clamped to the grid.
  std::size_t grid_index(int axis, real_t v, real_t pad) const;
  /// True when a wall folds some particle of `bk` at the current center.
  bool reflected(const Bucket& bk) const;
  /// Position of a particle whose offset from the lower x face, folded
  /// into [0, ex), is `v`.  Monotone in v.
  real_t x_at(real_t v) const;

  // Drawn once.  Structure of arrays grouped by bucket: pos_[0] holds the
  // draw offsets t, pos_[1] and pos_[2] the y and z positions.
  std::array<std::vector<real_t>, kDim> pos_;
  // Bucket (i, j, k) is buckets_[i + dims_[0] * (j + dims_[1] * k)]; the
  // grid spans the bounding box of (t, y, z), starting at origin_.
  std::vector<Bucket> buckets_;
  std::array<std::size_t, kDim> dims_{};
  std::array<real_t, kDim> origin_{}, inv_width_{};
  // The domain's lower x face, x extent and last x inside, and the
  // extremes of t.
  real_t lox_ = 0, ex_ = 0, x_last_ = 0, t_lo_ = 0, t_hi_ = 0;

  // The placement: the center in cells from the lower x face, the placed x
  // extremes of each bucket and of each x slab of the grid (slab i holds
  // the buckets (i, *, *)).
  real_t cx_ = 0;
  std::vector<Span> placed_;
  std::vector<Span> slabs_;
};

}  // namespace ssamr
