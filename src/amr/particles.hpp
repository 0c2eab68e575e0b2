#pragma once
/// \file particles.hpp
/// Deterministic particle clouds for the dual-constraint cost model.
///
/// The AMReX load-balancing study (PAPERS.md) shows that partitioner
/// rankings flip once particles impose a second cost constraint besides
/// cells: a box's load is then cells + particles it carries, and particle
/// density is far less uniform than cell count.  A ParticleField is a
/// fixed, seeded set of particle positions in *base-level* cell
/// coordinates; the work model (amr/workload.hpp) counts the particles a
/// box covers and prices them alongside its cells.
///
/// Two properties the partition audits rely on:
///   * Determinism: equal (config, center) always produces the identical
///     particle set (util/rng.hpp, fixed draw order).
///   * Exact additivity: a particle lies in a level-l box iff its scaled
///     position p * ratio^l falls in the box's half-open index interval
///     [lo, hi+1) per dimension.  Splitting a box partitions that integer
///     interval, so counts over split pieces sum to the parent's count
///     exactly — particle work is conserved bit-for-bit under splitting.
///
/// Counting is sublinear: the field keeps its particles grouped into the
/// buckets of a uniform grid over the cloud, each with the tight per-axis
/// bounds of its particles, and count_in tests single particles only in
/// the buckets that straddle the box.  Multiplying by a positive scale is
/// monotone in IEEE arithmetic, so a bucket whose scaled bounds lie inside
/// (or outside) the interval holds only particles that the per-particle
/// test accepts (or rejects): counts equal a scan of every particle, at
/// every level and ratio.

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

/// A fixed set of particle positions in base-level cell coordinates.
class ParticleField {
 public:
  ParticleField() = default;

  /// A Gaussian cloud centered at `center_x` (fraction of the domain
  /// x-extent) inside `base_domain` (a level-0 box).  Positions falling
  /// outside the domain are reflected back in, so the count is always
  /// exactly cfg.count.  Equal (domain, cfg, center_x) yields the
  /// bit-identical cloud — the drift of a moving cloud is modelled by
  /// re-generating with the same seed at a new center, which translates
  /// every particle coherently.  `center_x`, `cfg.sigma_x` and
  /// `cfg.sigma_yz_frac` must be finite.
  static ParticleField gaussian_cloud(const Box& base_domain,
                                      const ParticleCloudConfig& cfg,
                                      real_t center_x);

  /// Number of particles inside box `b` (level `b.level()`, refinement
  /// `ratio` between levels).  Exactly additive over same-level splits.
  std::int64_t count_in(const Box& b, coord_t ratio) const;

  std::int64_t size() const {
    return static_cast<std::int64_t>(pos_[0].size());
  }
  bool empty() const { return pos_[0].empty(); }

 private:
  /// One grid cell of the index: its particles are pos_[d][begin, end),
  /// and lo/hi are their exact per-axis extremes.
  struct Bucket {
    std::array<real_t, kDim> lo{}, hi{};
    std::size_t begin = 0, end = 0;
  };

  /// Groups pos_ by bucket (a counting sort) and records bucket bounds;
  /// lo/hi bound every particle.
  void build_index(const std::array<real_t, kDim>& lo,
                   const std::array<real_t, kDim>& hi);
  /// Grid index along `axis` of base coordinate `v`, moved by `pad`
  /// buckets and clamped to the grid.
  std::size_t grid_index(int axis, real_t v, real_t pad) const;

  // Structure of arrays, grouped by bucket.
  std::array<std::vector<real_t>, kDim> pos_;
  // Bucket (i, j, k) is buckets_[i + dims_[0] * (j + dims_[1] * k)]; the
  // grid spans the cloud's bounding box, starting at origin_.
  std::vector<Bucket> buckets_;
  std::array<std::size_t, kDim> dims_{};
  std::array<real_t, kDim> origin_{}, inv_width_{};
};

}  // namespace ssamr
