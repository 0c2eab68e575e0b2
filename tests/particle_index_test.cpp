// Differential tests of the bucket-indexed particle count: for every cloud,
// freshly drawn or placed at a new center, and every box,
// ParticleField::count_in must equal the scan of every particle in
// oracle.hpp, and counts must add up exactly over same-level splits.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "amr/particles.hpp"
#include "amr/trace_generator.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

constexpr level_t kMaxLevel = 4;

/// A random non-empty box at `level` around the level's image of
/// `domain`: single cells, boxes inside, straddling a face, or wholly
/// outside.
Box random_box(Rng& rng, const Box& domain, level_t level) {
  const Box dom = level == 0 ? domain : domain.refined_by(level);
  IntVec lo, ext;
  for (int d = 0; d < kDim; ++d) {
    const coord_t n = dom.extent()[d];
    const coord_t margin = n / 4 + 2;
    lo.at(d) = rng.uniform_int(dom.lo()[d] - margin, dom.hi()[d] + margin);
    ext.at(d) = rng.uniform() < 0.2 ? 1 : rng.uniform_int(1, n);
  }
  return Box::from_extent(lo, ext, level);
}

ParticleCloudConfig random_cloud(Rng& rng, std::int64_t count) {
  ParticleCloudConfig cfg;
  cfg.count = count;
  cfg.seed = rng();
  cfg.sigma_x = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 20.0);
  cfg.sigma_yz_frac = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 0.6);
  return cfg;
}

Box random_domain(Rng& rng) {
  return Box::from_extent(
      IntVec(rng.uniform_int(-40, 40), rng.uniform_int(-40, 40),
             rng.uniform_int(-40, 40)),
      IntVec(rng.uniform_int(1, 80), rng.uniform_int(1, 40),
             rng.uniform_int(1, 24)),
      0);
}

/// Compares the index against the scan on `boxes` random boxes per level.
void expect_matches_scan(const Box& domain, const ParticleCloudConfig& cfg,
                         real_t center_x, Rng& rng, int boxes) {
  const ParticleField field =
      ParticleField::gaussian_cloud(domain, cfg, center_x);
  const oracle::ParticleCloud cloud =
      oracle::gaussian_cloud(domain, cfg, center_x);
  ASSERT_EQ(field.size(), cfg.count);
  ASSERT_EQ(static_cast<std::int64_t>(cloud.xs.size()), cfg.count);
  EXPECT_EQ(field.count_in(domain), cfg.count);
  for (level_t level = 0; level <= kMaxLevel; ++level)
    for (int i = 0; i < boxes; ++i) {
      const Box b = random_box(rng, domain, level);
      ASSERT_EQ(field.count_in(b), oracle::count_in(cloud, b))
          << "level " << level << " box lo (" << b.lo().x << "," << b.lo().y
          << "," << b.lo().z << ") hi (" << b.hi().x << "," << b.hi().y
          << "," << b.hi().z << ")";
    }
}

TEST(ParticleIndex, MatchesScanOnFuzzedClouds) {
  Rng rng(0x1dea5ULL);
  const std::int64_t counts[] = {0, 1, 2, 7, 13, 100, 1000, 5000};
  for (int trial = 0; trial < 48; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::int64_t count =
        trial < 8 ? counts[trial] : rng.uniform_int(0, 6000);
    expect_matches_scan(random_domain(rng), random_cloud(rng, count),
                        rng.uniform(-0.2, 1.2), rng, 6);
  }
}

TEST(ParticleIndex, MatchesScanOnLargeClouds) {
  Rng rng(0xb16c10dULL);
  for (const std::int64_t count : {24000, 50000}) {
    SCOPED_TRACE("count " + std::to_string(count));
    ParticleCloudConfig cfg = random_cloud(rng, count);
    cfg.sigma_x = 6.0;
    cfg.sigma_yz_frac = 0.25;
    expect_matches_scan(
        Box::from_extent(IntVec(-16, 8, -4), IntVec(128, 32, 32), 0), cfg,
        0.37, rng, 40);
  }
}

TEST(ParticleIndex, FaceAlignedParticlesMatchScan) {
  // Zero spread and an integer center: every particle sits on one lattice
  // point, so every scaled coordinate lies exactly on a cell face of every
  // level and the half-open bounds decide each count.
  const Box domain = Box::from_extent(IntVec(-8, 4, -3), IntVec(64, 16, 8), 0);
  ParticleCloudConfig cfg;
  cfg.count = 333;
  cfg.sigma_x = 0;
  cfg.sigma_yz_frac = 0;
  for (const real_t center_x : {0.0, 0.25, 0.5, 0.875}) {
    SCOPED_TRACE("center " + std::to_string(center_x));
    const ParticleField field =
        ParticleField::gaussian_cloud(domain, cfg, center_x);
    const oracle::ParticleCloud cloud =
        oracle::gaussian_cloud(domain, cfg, center_x);
    const IntVec p(static_cast<coord_t>(cloud.xs[0]),
                   static_cast<coord_t>(cloud.ys[0]),
                   static_cast<coord_t>(cloud.zs[0]));
    ASSERT_EQ(static_cast<real_t>(p.x), cloud.xs[0]);
    coord_t scale = 1;
    for (level_t level = 0; level <= kMaxLevel; ++level) {
      // Every box whose faces lie within two cells of the point.
      const IntVec c = p * scale;
      for (coord_t dlo = -2; dlo <= 2; ++dlo)
        for (coord_t dhi = -2; dhi <= 2; ++dhi)
          for (int axis = 0; axis < kDim; ++axis) {
            IntVec lo = c - IntVec::splat(1), hi = c + IntVec::splat(1);
            lo.at(axis) = c[axis] + dlo;
            hi.at(axis) = c[axis] + dhi;
            const Box b(lo, hi, level);
            EXPECT_EQ(field.count_in(b), oracle::count_in(cloud, b));
          }
      EXPECT_EQ(field.count_in(Box(c, c, level)), cfg.count);
      scale *= kRefinementRatio;
    }
  }
}

TEST(ParticleIndex, BoxFacesThroughParticlesMatchScan) {
  // Doubles in [2^52, 2^53) are integers, so a domain there puts every
  // particle on a lattice point, and its scaled coordinate at any level is
  // an integer too.  Boxes with a face through a particle then make the
  // half-open bounds decide membership in buckets that lie inside, lie
  // outside or straddle the box alike.
  constexpr coord_t kFar = coord_t{1} << 52;
  const Box domain = Box::from_extent(
      IntVec::splat(kFar), IntVec(1 << 24, 1 << 23, 1 << 23), 0);
  ParticleCloudConfig cfg;
  cfg.count = 4000;
  cfg.sigma_x = 1 << 21;
  const ParticleField field = ParticleField::gaussian_cloud(domain, cfg, 0.5);
  const oracle::ParticleCloud cloud =
      oracle::gaussian_cloud(domain, cfg, 0.5);
  ASSERT_EQ(cloud.xs[0], std::floor(cloud.xs[0]));
  Rng rng(0xfacedULL);
  real_t scale = 1;
  for (level_t level = 0; level <= kMaxLevel; ++level) {
    for (int i = 0; i < 200; ++i) {
      const auto q =
          static_cast<std::size_t>(rng.uniform_int(0, cfg.count - 1));
      const IntVec c(static_cast<coord_t>(cloud.xs[q] * scale),
                     static_cast<coord_t>(cloud.ys[q] * scale),
                     static_cast<coord_t>(cloud.zs[q] * scale));
      const Box around = random_box(rng, domain, level);
      IntVec lo = around.lo(), hi = around.hi();
      const int axis = static_cast<int>(rng.uniform_int(0, kDim - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // particle on the closed lower face
          lo.at(axis) = c[axis];
          hi.at(axis) = std::max(hi[axis], c[axis]);
          break;
        case 1:  // particle just past the open upper face
          hi.at(axis) = c[axis] - 1;
          lo.at(axis) = std::min(lo[axis], c[axis] - 1);
          break;
        default:  // particle in the last cell
          hi.at(axis) = c[axis];
          lo.at(axis) = std::min(lo[axis], c[axis]);
          break;
      }
      const Box b(lo, hi, level);
      ASSERT_EQ(field.count_in(b), oracle::count_in(cloud, b))
          << "level " << level << " box " << i;
    }
    scale *= static_cast<real_t>(kRefinementRatio);
  }
}

TEST(ParticleIndex, PlacedCloudMatchesFreshCloud) {
  // A cloud drawn at one center and placed at another must count exactly
  // as a fresh draw there.  Centers 0, 1, -0.4 and 1.3 put buckets against
  // and past both walls, so they are placed particle by particle; the
  // trace's interface walks the cloud to a wall and back.
  Rng rng(0x91ace5ULL);
  const SyntheticAmrTrace trace(TraceConfig{});
  std::vector<real_t> centers{0.0, 1.0, -0.4, 1.3};
  for (int epoch = 0; epoch < 40; ++epoch)
    centers.push_back(trace.interface_position(epoch));
  const std::int64_t counts[] = {0, 1, 2, 7, 13, 100, 1000, 5000};
  for (int trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::int64_t count =
        trial < 8 ? counts[trial] : rng.uniform_int(0, 5000);
    const Box domain = random_domain(rng);
    ParticleCloudConfig cfg = random_cloud(rng, count);
    // Zero spread along x stacks the cloud on the center, so centers 0
    // and 1 put every particle exactly on a wall.
    if (trial % 4 == 2) cfg.sigma_x = 0;
    std::vector<Box> boxes;
    for (level_t level = 0; level <= kMaxLevel; ++level)
      for (int i = 0; i < 2; ++i)
        boxes.push_back(random_box(rng, domain, level));
    const real_t first = rng.uniform(-0.2, 1.2);
    ParticleField field = ParticleField::gaussian_cloud(domain, cfg, first);
    std::vector<std::int64_t> first_counts;
    for (std::size_t q = 0; q < boxes.size(); ++q)
      first_counts.push_back(field.count_in(boxes[q]));
    for (const real_t center : centers) {
      SCOPED_TRACE("center " + std::to_string(center));
      field.place(center);
      const oracle::ParticleCloud cloud =
          oracle::gaussian_cloud(domain, cfg, center);
      ASSERT_EQ(field.count_in(domain), cfg.count);
      for (std::size_t q = 0; q < boxes.size(); ++q)
        ASSERT_EQ(field.count_in(boxes[q]), oracle::count_in(cloud, boxes[q]))
            << "box " << q;
    }
    field.place(first);
    for (std::size_t q = 0; q < boxes.size(); ++q)
      EXPECT_EQ(field.count_in(boxes[q]), first_counts[q]);
  }
}

TEST(ParticleIndex, CountsAddUpOverRandomSplits) {
  Rng rng(0x5b117ULL);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Box domain = random_domain(rng);
    const ParticleField field = ParticleField::gaussian_cloud(
        domain, random_cloud(rng, rng.uniform_int(1, 20000)),
        rng.uniform(0.0, 1.0));
    for (level_t level = 0; level <= kMaxLevel; ++level) {
      // Carve a box into pieces by random cuts; the pieces' counts must
      // sum to the whole's.
      const Box whole = random_box(rng, domain, level);
      std::vector<Box> pieces{whole};
      for (int cut = 0; cut < 24; ++cut) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pieces.size()) - 1));
        const int axis = static_cast<int>(rng.uniform_int(0, kDim - 1));
        const coord_t n = pieces[at].extent()[axis];
        if (n < 2) continue;
        const auto [a, b] = pieces[at].split(axis, rng.uniform_int(1, n - 1));
        pieces[at] = a;
        pieces.push_back(b);
      }
      std::int64_t sum = 0;
      for (const Box& piece : pieces) sum += field.count_in(piece);
      EXPECT_EQ(sum, field.count_in(whole)) << "level " << level;
    }
  }
}

TEST(ParticleIndex, EmptyFieldCountsNothing) {
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0);
  const ParticleField none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.count_in(domain), 0);
  const ParticleField disabled =
      ParticleField::gaussian_cloud(domain, ParticleCloudConfig{}, 0.5);
  EXPECT_TRUE(disabled.empty());
  EXPECT_EQ(disabled.count_in(domain), 0);
}

TEST(ParticleIndex, RejectsNonFiniteParameters) {
  // A NaN particle fails every "outside" comparison and so would count in
  // every box, breaking additivity; such clouds are refused up front.
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  ParticleCloudConfig cfg;
  cfg.count = 1000;
  EXPECT_THROW(ParticleField::gaussian_cloud(domain, cfg, nan), Error);
  EXPECT_THROW(ParticleField::gaussian_cloud(domain, cfg, inf), Error);
  for (const real_t bad : {nan, inf, -inf}) {
    ParticleCloudConfig c = cfg;
    c.sigma_x = bad;
    EXPECT_THROW(ParticleField::gaussian_cloud(domain, c, 0.5), Error);
    c = cfg;
    c.sigma_yz_frac = bad;
    EXPECT_THROW(ParticleField::gaussian_cloud(domain, c, 0.5), Error);
  }
  // Finite parameters whose products overflow: the center or the spreads
  // in cells, or the draws themselves.
  EXPECT_THROW(ParticleField::gaussian_cloud(domain, cfg, 1e307), Error);
  ParticleCloudConfig huge = cfg;
  huge.sigma_x = 1e308;
  EXPECT_THROW(ParticleField::gaussian_cloud(domain, huge, 0.5), Error);
  huge = cfg;
  huge.sigma_yz_frac = 1e308;
  EXPECT_THROW(ParticleField::gaussian_cloud(domain, huge, 0.5), Error);
  // A refused placement leaves the field where it was.
  ParticleField field = ParticleField::gaussian_cloud(domain, cfg, 0.5);
  const Box left = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  const std::int64_t in_left = field.count_in(left);
  for (const real_t bad : {nan, inf, 1e307})
    EXPECT_THROW(field.place(bad), Error);
  EXPECT_EQ(field.count_in(domain), cfg.count);
  EXPECT_EQ(field.count_in(left), in_left);
}

}  // namespace
}  // namespace ssamr
