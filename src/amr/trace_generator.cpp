#include "amr/trace_generator.hpp"

#include <algorithm>
#include <cmath>

#include "geom/box_algebra.hpp"
#include "util/error.hpp"

namespace ssamr {

namespace {
constexpr real_t kPi = 3.14159265358979323846;

/// Reflect a position into [margin, 1-margin] (triangle wave).
real_t reflect01(real_t x, real_t margin) {
  const real_t span = 1.0 - 2.0 * margin;
  real_t t = std::fmod(std::abs(x - margin), 2.0 * span);
  if (t > span) t = 2.0 * span - t;
  return margin + t;
}
}  // namespace

SyntheticAmrTrace::SyntheticAmrTrace(TraceConfig cfg) : cfg_(cfg) {
  SSAMR_REQUIRE(!cfg.domain.empty(), "trace needs a non-empty domain");
  SSAMR_REQUIRE(cfg.domain.level() == 0, "trace domain must be level 0");
  SSAMR_REQUIRE(cfg.max_levels >= 1, "need at least one level");
  SSAMR_REQUIRE(cfg.band_halfwidth > 0, "band half-width must be positive");
  // std::clamp passes NaN through, so a non-finite band edge would reach
  // the integer casts in boxes_at_epoch.
  SSAMR_REQUIRE(std::isfinite(cfg.interface_x0) && std::isfinite(cfg.speed) &&
                    std::isfinite(cfg.amplitude0) &&
                    std::isfinite(cfg.growth) &&
                    std::isfinite(cfg.max_amplitude),
                "interface position, speed and amplitudes must be finite");
}

real_t SyntheticAmrTrace::interface_position(int epoch) const {
  SSAMR_REQUIRE(epoch >= 0, "epoch must be non-negative");
  // Keep a margin so the refined band never leaves the domain.
  const real_t margin = 0.08;
  return reflect01(cfg_.interface_x0 +
                       cfg_.speed * static_cast<real_t>(epoch),
                   margin);
}

ParticleField SyntheticAmrTrace::particles_at_epoch(int epoch) const {
  return ParticleField::gaussian_cloud(cfg_.domain, cfg_.particles,
                                       interface_position(epoch));
}

BoxList SyntheticAmrTrace::boxes_at_epoch(int epoch) const {
  BoxList out;
  out.push_back(cfg_.domain);

  const real_t pos = interface_position(epoch);
  const real_t amp0 =
      std::min(cfg_.amplitude0 + cfg_.growth * static_cast<real_t>(epoch),
               cfg_.max_amplitude);
  const IntVec ext0 = cfg_.domain.extent();

  // parent_union: boxes of the previous level (flags must stay inside to
  // preserve proper nesting).
  std::vector<Box> parent_union{cfg_.domain};

  for (int l = 0; l + 1 < cfg_.max_levels; ++l) {
    // Flag cells of level l within the perturbed band around the interface.
    const coord_t scale = refinement_scale(l);
    const real_t nx = static_cast<real_t>(ext0.x * scale);
    const real_t ny = static_cast<real_t>(ext0.y * scale);
    const real_t nz = static_cast<real_t>(ext0.z * scale);
    const real_t amp = amp0 * static_cast<real_t>(scale);
    const real_t halfw = cfg_.band_halfwidth;

    // The perturbation separates into a y term per row and a z term per
    // plane; tabulate both over the level's domain (parent boxes nest
    // inside it) so a row costs no transcendental call.
    const IntVec dom_lo = cfg_.domain.lo() * scale;
    std::vector<real_t> wave_y(static_cast<std::size_t>(ext0.y * scale));
    for (std::size_t j = 0; j < wave_y.size(); ++j) {
      const real_t yfrac =
          (static_cast<real_t>(dom_lo.y + static_cast<coord_t>(j)) + 0.5) /
          ny;
      wave_y[j] = std::sin(2.0 * kPi * cfg_.waves_y * yfrac);
    }
    std::vector<real_t> wave_z(static_cast<std::size_t>(ext0.z * scale));
    for (std::size_t k = 0; k < wave_z.size(); ++k) {
      const real_t zfrac =
          (static_cast<real_t>(dom_lo.z + static_cast<coord_t>(k)) + 0.5) /
          nz;
      wave_z[k] = 0.5 * std::cos(2.0 * kPi * cfg_.waves_z * zfrac);
    }

    // One run per row of each parent box.  The parent boxes are disjoint
    // (clipped, coalesced, refined cluster boxes), so the runs are too.
    std::size_t rows = 0;
    for (const Box& pb : parent_union)
      rows += static_cast<std::size_t>(pb.extent().y * pb.extent().z);
    std::vector<FlagRun> runs;
    runs.reserve(rows);
    for (const Box& pb : parent_union) {
      for (coord_t k = pb.lo().z; k <= pb.hi().z; ++k) {
        for (coord_t j = pb.lo().y; j <= pb.hi().y; ++j) {
          const real_t xs =
              pos * nx +
              amp * (wave_y[static_cast<std::size_t>(j - dom_lo.y)] +
                     wave_z[static_cast<std::size_t>(k - dom_lo.z)]);
          // Clamp to the parent box IN FLOATING POINT before converting:
          // with extreme amplitudes/band widths the band edges can exceed
          // the range of coord_t, and casting an out-of-range double to an
          // integer is undefined behaviour (the planes_for_target class of
          // bug).  A band entirely outside the box is skipped instead of
          // clamped so the clamp cannot invent flags.
          const real_t band_lo = std::floor(xs - halfw);
          const real_t band_hi = std::ceil(xs + halfw);
          const real_t box_lo = static_cast<real_t>(pb.lo().x);
          const real_t box_hi = static_cast<real_t>(pb.hi().x);
          if (band_lo > box_hi || band_hi < box_lo) continue;
          const coord_t ilo =
              static_cast<coord_t>(std::clamp(band_lo, box_lo, box_hi));
          const coord_t ihi =
              static_cast<coord_t>(std::clamp(band_hi, box_lo, box_hi));
          runs.push_back(FlagRun{ilo, ihi, j, k});
        }
      }
    }
    if (runs.empty()) break;

    const auto coarse_boxes =
        cluster_runs(std::move(runs), static_cast<level_t>(l), cfg_.cluster);
    // A cluster's bounding box can bridge the gap between two disjoint
    // parent boxes; clipping keeps the refined level properly nested.
    std::vector<Box> next_union;
    for (const Box& b : clip_and_coalesce(coarse_boxes, parent_union)) {
      const Box fine = b.refined();
      out.push_back(fine);
      next_union.push_back(fine);
    }
    parent_union = std::move(next_union);
  }
  return out;
}

}  // namespace ssamr
