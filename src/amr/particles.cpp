#include "amr/particles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {

namespace {

/// Mean particles per bucket the grid is sized for.
constexpr real_t kParticlesPerBucket = 12;
/// Narrowest bucket relative to the magnitude of the coordinates it
/// covers (2^20 units in the last place).  The query range is computed in
/// floating point and widened by one bucket; this floor keeps its rounding
/// error, a few units in the last place, far below that margin.
constexpr real_t kMinRelativeWidth = 0x1p-32;
/// Particle slots and bucket offsets are 32-bit.
constexpr std::uint32_t kMaxParticles =
    std::numeric_limits<std::uint32_t>::max();

/// Reflect `v` into [0, span) by folding at the walls.  span must be > 0.
real_t reflect_into(real_t v, real_t span) {
  // Fold the real line onto [0, 2*span) then mirror the upper half.  fmod
  // is exact and returns v itself within one period of 0 (inside the
  // domain, or folded once by a wall), so it is only called beyond that.
  const real_t period = 2 * span;
  real_t r = std::abs(v) < period ? v : std::fmod(v, period);
  if (r < 0) r += period;
  if (r >= span) r = period - r;
  // fmod can land exactly on span after the mirror step when v is an exact
  // multiple; fold once more and clamp away from the open upper bound.
  if (r >= span)
    r = std::nextafter(span, real_t{0});
  return r;
}

/// The largest double inside [lo, lo + span).  lo + r for r in [0, span)
/// rounds onto the open face lo + span when |lo| is large next to
/// span - r, so positions are clamped to this.
real_t last_inside(real_t lo, real_t span) {
  return std::nextafter(lo + span, lo);
}

}  // namespace

ParticleField ParticleField::gaussian_cloud(const Box& base_domain,
                                            const ParticleCloudConfig& cfg,
                                            real_t center_x) {
  SSAMR_REQUIRE(cfg.count >= 0 && cfg.count <= kMaxParticles,
                "particle count must be in [0, 2^32)");
  SSAMR_REQUIRE(base_domain.level() == 0,
                "particle domain must be a level-0 box");
  SSAMR_REQUIRE(std::isfinite(center_x) && std::isfinite(cfg.sigma_x) &&
                    std::isfinite(cfg.sigma_yz_frac),
                "particle cloud center and spreads must be finite");
  ParticleField field;
  if (cfg.count == 0) return field;
  SSAMR_REQUIRE(!base_domain.empty(), "particle domain must be non-empty");

  const IntVec ext = base_domain.extent();
  const real_t ex = static_cast<real_t>(ext.x);
  const real_t ey = static_cast<real_t>(ext.y);
  const real_t ez = static_cast<real_t>(ext.z);
  const real_t sy = cfg.sigma_yz_frac * ey;
  const real_t sz = cfg.sigma_yz_frac * ez;
  // place() below checks the center in cells.
  SSAMR_REQUIRE(std::isfinite(sy) && std::isfinite(sz),
                "particle cloud spreads in cells must be finite");
  field.lox_ = static_cast<real_t>(base_domain.lo().x);
  field.ex_ = ex;
  field.x_last_ = last_inside(field.lox_, ex);

  for (std::vector<real_t>& axis : field.pos_)
    axis.reserve(static_cast<std::size_t>(cfg.count));
  Rng rng(cfg.seed);
  const real_t loy = static_cast<real_t>(base_domain.lo().y);
  const real_t loz = static_cast<real_t>(base_domain.lo().z);
  const real_t y_last = last_inside(loy, ey);
  const real_t z_last = last_inside(loz, ez);
  // The bounding box of (t, y, z), for the index grid.
  std::array<real_t, kDim> lo, hi;
  lo.fill(std::numeric_limits<real_t>::infinity());
  hi.fill(-std::numeric_limits<real_t>::infinity());
  bool finite = true;
  for (std::int64_t i = 0; i < cfg.count; ++i) {
    // Fixed draw order (x, y, z) so the stream is position-independent of
    // any future config fields.  t is the product Rng::normal(cx, sigma_x)
    // adds to the center, so cx + t is that draw bit for bit.
    const real_t t = cfg.sigma_x * rng.normal();
    const real_t py = rng.normal(ey / 2, sy);
    const real_t pz = rng.normal(ez / 2, sz);
    finite = finite && std::isfinite(py) && std::isfinite(pz);
    const std::array<real_t, kDim> p{
        t, std::min(loy + reflect_into(py, ey), y_last),
        std::min(loz + reflect_into(pz, ez), z_last)};
    for (std::size_t d = 0; d < kDim; ++d) {
      field.pos_[d].push_back(p[d]);
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  // An infinite t also makes its span infinite.
  SSAMR_REQUIRE(finite && std::isfinite(hi[0] - lo[0]),
                "particle draws must be finite");
  field.t_lo_ = lo[0];
  field.t_hi_ = hi[0];
  field.build_index(lo, hi);
  field.place(center_x);
  return field;
}

std::size_t ParticleField::grid_index(int axis, real_t v, real_t pad) const {
  // Truncating a value clamped to [0, dims) is its floor.
  const auto d = static_cast<std::size_t>(axis);
  const real_t t = (v - origin_[d]) * inv_width_[d] + pad;
  return static_cast<std::size_t>(
      std::clamp(t, real_t{0}, static_cast<real_t>(dims_[d] - 1)));
}

void ParticleField::build_index(const std::array<real_t, kDim>& lo,
                                const std::array<real_t, kDim>& hi) {
  const std::size_t n = pos_[0].size();
  // Size the grid from the count alone, so memory stays O(n) whatever the
  // domain volume: cubic buckets over the cloud's bounding box, about
  // kParticlesPerBucket particles each on average.  An axis thinner than
  // one bucket (or than the rounding floor) gets a single layer, and the
  // edge is recomputed over the remaining axes.
  const real_t target =
      std::max(real_t{1}, static_cast<real_t>(n) / kParticlesPerBucket);
  std::array<real_t, kDim> ext{}, min_width{};
  std::array<bool, kDim> flat{};
  for (std::size_t d = 0; d < kDim; ++d) {
    origin_[d] = lo[d];
    ext[d] = hi[d] - lo[d];
    min_width[d] = kMinRelativeWidth *
                   std::max({real_t{1}, std::abs(lo[d]), std::abs(hi[d])});
    flat[d] = !(ext[d] > min_width[d]);
  }
  real_t edge = 0;
  for (int pass = 0; pass < kDim; ++pass) {
    real_t volume = 1;
    int live = 0;
    for (std::size_t d = 0; d < kDim; ++d)
      if (!flat[d]) {
        volume *= ext[d];
        ++live;
      }
    if (live == 0) break;
    edge = std::pow(volume / target, real_t{1} / live);
    bool thinned = false;
    for (std::size_t d = 0; d < kDim; ++d)
      if (!flat[d] && ext[d] < edge) {
        flat[d] = true;
        thinned = true;
      }
    if (!thinned) break;
  }
  std::size_t nbuckets = 1;
  for (std::size_t d = 0; d < kDim; ++d) {
    const real_t cells =
        flat[d] ? 1 : std::floor(ext[d] / std::max(edge, min_width[d]));
    dims_[d] = static_cast<std::size_t>(std::clamp(cells, real_t{1}, target));
    inv_width_[d] = flat[d] ? 0 : static_cast<real_t>(dims_[d]) / ext[d];
    nbuckets *= dims_[d];
  }

  // Counting sort: count per bucket (shifted one slot up, so the prefix
  // sum yields offsets), turn each particle's bucket into its destination,
  // scatter each axis, then take each bucket's bounds from its run.
  std::vector<std::uint32_t> offset(nbuckets + 1, 0);
  std::vector<std::uint32_t> slot(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t b =
        grid_index(0, pos_[0][p], 0) +
        dims_[0] * (grid_index(1, pos_[1][p], 0) +
                    dims_[1] * grid_index(2, pos_[2][p], 0));
    slot[p] = static_cast<std::uint32_t>(b);
    ++offset[b + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  buckets_.resize(nbuckets);
  placed_.resize(nbuckets);
  slabs_.resize(dims_[0]);
  for (std::size_t b = 0; b < nbuckets; ++b) {
    buckets_[b].begin = offset[b];
    buckets_[b].end = offset[b + 1];
  }
  for (std::uint32_t& s : slot) s = offset[s]++;
  for (std::vector<real_t>& axis : pos_) {
    std::vector<real_t> sorted(n);
    for (std::size_t p = 0; p < n; ++p) sorted[slot[p]] = axis[p];
    axis = std::move(sorted);
  }
  for (Bucket& bk : buckets_)
    for (std::size_t d = 0; d < kDim; ++d) {
      real_t mn = std::numeric_limits<real_t>::infinity();
      real_t mx = -mn;
      for (std::uint32_t p = bk.begin; p < bk.end; ++p) {
        mn = std::min(mn, pos_[d][p]);
        mx = std::max(mx, pos_[d][p]);
      }
      bk.lo[d] = mn;
      bk.hi[d] = mx;
    }
}

real_t ParticleField::x_at(real_t v) const {
  return std::min(lox_ + v, x_last_);
}

bool ParticleField::reflected(const Bucket& bk) const {
  return !(cx_ + bk.lo[0] >= 0 && cx_ + bk.hi[0] < ex_);
}

void ParticleField::place(real_t center_x) {
  const real_t cx = center_x * ex_;
  SSAMR_REQUIRE(std::isfinite(cx) && std::isfinite(cx + t_lo_) &&
                    std::isfinite(cx + t_hi_),
                "placed particle cloud must be finite");
  cx_ = cx;
  constexpr real_t inf = std::numeric_limits<real_t>::infinity();
  std::fill(slabs_.begin(), slabs_.end(), Span{inf, -inf});
  const real_t* ts = pos_[0].data();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bk = buckets_[b];
    Span& s = placed_[b];
    if (!reflected(bk)) {
      // Every cx + t lies in [0, ex), where reflect_into is the identity.
      s = {x_at(cx + bk.lo[0]), x_at(cx + bk.hi[0])};
    } else {
      s = {inf, -inf};
      for (std::uint32_t p = bk.begin; p < bk.end; ++p) {
        const real_t x = x_at(reflect_into(cx + ts[p], ex_));
        s.lo = std::min(s.lo, x);
        s.hi = std::max(s.hi, x);
      }
    }
    Span& slab = slabs_[b % dims_[0]];
    slab.lo = std::min(slab.lo, s.lo);
    slab.hi = std::max(slab.hi, s.hi);
  }
}

std::int64_t ParticleField::count_in(const Box& b) const {
  if (empty() || b.empty()) return 0;
  const auto scale = static_cast<real_t>(refinement_scale(b.level()));
  // Half-open interval [lo, hi+1) per dimension in the box's own index
  // space; the same scaled coordinate is compared against every box, so
  // counts are exactly additive across a partition of the index space.
  std::array<real_t, kDim> lo{}, hi{};
  std::array<std::size_t, kDim> first{}, last{};
  for (int d = 0; d < kDim; ++d) {
    const auto a = static_cast<std::size_t>(d);
    lo[a] = static_cast<real_t>(b.lo()[d]);
    hi[a] = static_cast<real_t>(b.hi()[d] + 1);
    // Candidate buckets along y and z, one wider each way than the box's
    // footprint: the bucket bounds below decide membership, this range
    // only has to hold every bucket that can.
    if (d == 0) continue;
    first[a] = grid_index(d, lo[a] / scale, -1);
    last[a] = grid_index(d, hi[a] / scale, +1);
  }
  // Candidate slabs along x: those whose placed extremes meet the box.  A
  // slab's extremes bound its buckets', so a disjoint slab holds only
  // disjoint buckets.
  first[0] = dims_[0];
  for (std::size_t i = 0; i < dims_[0]; ++i)
    if (!(slabs_[i].hi * scale < lo[0] || slabs_[i].lo * scale >= hi[0])) {
      first[0] = std::min(first[0], i);
      last[0] = i;
    }
  if (first[0] == dims_[0]) return 0;

  const real_t* ts = pos_[0].data();
  const real_t* ys = pos_[1].data();
  const real_t* zs = pos_[2].data();
  // x of the particle with offset t, as place() places it.  reflect_into
  // is the identity on an unreflected bucket's offsets, so skip it there.
  const auto shifted = [&](real_t t) { return x_at(cx_ + t); };
  const auto folded = [&](real_t t) {
    return x_at(reflect_into(cx_ + t, ex_));
  };
  // The per-particle "skip if outside" test over a straddling bucket.
  const auto count_particles = [&](const Bucket& bk, auto place_x) {
    std::int64_t in = 0;
    for (std::uint32_t p = bk.begin; p < bk.end; ++p) {
      const real_t sx = place_x(ts[p]) * scale;
      const real_t sy = ys[p] * scale;
      const real_t sz = zs[p] * scale;
      in += !(sx < lo[0]) & !(sx >= hi[0]) & !(sy < lo[1]) &
            !(sy >= hi[1]) & !(sz < lo[2]) & !(sz >= hi[2]);
    }
    return in;
  };
  std::int64_t count = 0;
  for (std::size_t k = first[2]; k <= last[2]; ++k)
    for (std::size_t j = first[1]; j <= last[1]; ++j)
      for (std::size_t i = first[0]; i <= last[0]; ++i) {
        const std::size_t at = i + dims_[0] * (j + dims_[1] * k);
        const Bucket& bk = buckets_[at];
        if (bk.begin == bk.end) continue;
        bool inside = true;
        bool disjoint = false;
        for (std::size_t d = 0; d < kDim; ++d) {
          const real_t blo = (d == 0 ? placed_[at].lo : bk.lo[d]) * scale;
          const real_t bhi = (d == 0 ? placed_[at].hi : bk.hi[d]) * scale;
          inside = inside && blo >= lo[d] && bhi < hi[d];
          disjoint = disjoint || bhi < lo[d] || blo >= hi[d];
        }
        if (disjoint) continue;
        if (inside) {
          count += static_cast<std::int64_t>(bk.end - bk.begin);
          continue;
        }
        count += reflected(bk) ? count_particles(bk, folded)
                               : count_particles(bk, shifted);
      }
  return count;
}

}  // namespace ssamr
