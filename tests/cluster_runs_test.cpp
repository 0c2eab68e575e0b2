// Differential tests of the run-based Berger–Rigoutsos core: the library's
// cluster_runs / cluster_flags and the synthetic trace built on them must
// reproduce, box for box and in order, the cell-by-cell reference in
// oracle.hpp.  The oracle's cut census shows that the fuzzed corpora reach
// every cut the library derives children for differently (each axis, each
// search, a run split by an x cut) and both kinds of forced leaf.  Small
// hand-built clouds pin the boxes of each way a child gets its signatures.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "amr/cluster_br.hpp"
#include "amr/trace_generator.hpp"
#include "oracle.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

bool zyx_less(IntVec a, IntVec b) {
  if (a.z != b.z) return a.z < b.z;
  if (a.y != b.y) return a.y < b.y;
  return a.x < b.x;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i) - 1))]);
}

ClusterConfig fuzz_cluster_config(Rng& rng) {
  ClusterConfig cfg;
  cfg.efficiency = rng.uniform() < 0.2 ? 1.0 : rng.uniform(0.2, 1.0);
  cfg.min_box_size = rng.uniform_int(1, 8);
  const std::int64_t small[] = {1, 8, 64, 256};
  cfg.small_box_cells = small[rng.uniform_int(0, 3)];
  const int depth[] = {1, 2, 3, 5, 32};
  cfg.max_depth = depth[rng.uniform_int(0, 4)];
  return cfg;
}

/// Up to three wavy bands, each confined to its own x-slab of a random
/// domain, plus scattered single cells: several runs per row, unsorted,
/// with duplicates.
std::vector<IntVec> fuzz_cloud(Rng& rng) {
  const IntVec lo(rng.uniform_int(-20, 20), rng.uniform_int(-20, 20),
                  rng.uniform_int(-20, 20));
  const coord_t bands = rng.uniform_int(1, 3);
  const coord_t slab = rng.uniform_int(6, 24);
  const coord_t ny = rng.uniform_int(1, 40);
  const coord_t nz = rng.uniform_int(1, 24);
  std::vector<IntVec> pts;
  for (coord_t band = 0; band < bands; ++band) {
    const coord_t x_lo = lo.x + band * slab;
    const real_t center = rng.uniform(0.0, static_cast<real_t>(slab));
    const real_t amp = rng.uniform(0.0, static_cast<real_t>(slab) / 2);
    const real_t halfw = rng.uniform(0.0, 4.0);
    const real_t row_gap = rng.uniform(0.0, 0.3);
    for (coord_t k = 0; k < nz; ++k)
      for (coord_t j = 0; j < ny; ++j) {
        if (rng.uniform() < row_gap) continue;
        const real_t xs =
            center + amp * std::sin(0.4 * static_cast<real_t>(j)) +
            0.5 * amp * std::cos(0.7 * static_cast<real_t>(k));
        const coord_t i0 =
            std::max<coord_t>(0, static_cast<coord_t>(std::floor(xs - halfw)));
        const coord_t i1 = std::min<coord_t>(
            slab - 1, static_cast<coord_t>(std::ceil(xs + halfw)));
        for (coord_t i = i0; i <= i1; ++i)
          pts.emplace_back(x_lo + i, lo.y + j, lo.z + k);
      }
  }
  const std::int64_t scatter = rng.uniform_int(0, 40);
  for (std::int64_t s = 0; s < scatter; ++s)
    pts.emplace_back(lo.x + rng.uniform_int(0, bands * slab - 1),
                     lo.y + rng.uniform_int(0, ny - 1),
                     lo.z + rng.uniform_int(0, nz - 1));
  const std::size_t dups = pts.size() / 8;
  for (std::size_t d = 0; d < dups && !pts.empty(); ++d)
    pts.push_back(pts[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pts.size()) - 1))]);
  shuffle(pts, rng);
  return pts;
}

/// Distinct cells of `pts` as runs broken at random points and shuffled,
/// so the core sees neither maximal runs nor row order.
std::vector<FlagRun> broken_runs(std::vector<IntVec> pts, Rng& rng) {
  std::sort(pts.begin(), pts.end(), zyx_less);
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  std::vector<FlagRun> runs;
  for (const IntVec& p : pts) {
    if (!runs.empty()) {
      FlagRun& last = runs.back();
      if (last.y == p.y && last.z == p.z && last.x1 + 1 == p.x &&
          rng.uniform() < 0.7) {
        last.x1 = p.x;
        continue;
      }
    }
    runs.push_back(FlagRun{p.x, p.x, p.y, p.z});
  }
  shuffle(runs, rng);
  return runs;
}

/// Every axis × search cell, the run-splitting x cut and both kinds of
/// forced leaf occurred at least once.
void expect_every_path(const oracle::ClusterCensus& census) {
  const char* kinds[] = {"hole", "inflection", "midpoint"};
  for (int axis = 0; axis < kDim; ++axis)
    for (int kind = 0; kind < 3; ++kind)
      EXPECT_GT(census.cuts[static_cast<std::size_t>(axis)]
                           [static_cast<std::size_t>(kind)],
                0)
          << "no " << kinds[kind] << " cut along axis " << axis;
  EXPECT_GT(census.run_splitting_x_cuts, 0);
  EXPECT_GT(census.depth_leaves, 0);
  EXPECT_GT(census.uncuttable_leaves, 0);
}

void expect_same_boxes(const std::vector<Box>& got,
                       const std::vector<Box>& want, int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "trial " << trial << " box " << i;
}

TEST(ClusterRuns, PointApiMatchesOracleOnFuzzedClouds) {
  Rng rng(20011);
  oracle::ClusterCensus census;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<IntVec> pts = fuzz_cloud(rng);
    const ClusterConfig cfg = fuzz_cluster_config(rng);
    const auto level = static_cast<level_t>(rng.uniform_int(0, 3));
    const std::vector<Box> want =
        oracle::cluster_flags(pts, level, cfg, &census);
    expect_same_boxes(cluster_flags(pts, level, cfg), want, trial);
    // Already (z, y, x)-sorted input takes the no-sort path.
    std::vector<IntVec> sorted = pts;
    std::sort(sorted.begin(), sorted.end(), zyx_less);
    expect_same_boxes(cluster_flags(sorted, level, cfg), want, trial);
  }
  expect_every_path(census);
}

TEST(ClusterRuns, BrokenShuffledRunsMatchOracle) {
  Rng rng(424242);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<IntVec> pts = fuzz_cloud(rng);
    const ClusterConfig cfg = fuzz_cluster_config(rng);
    const auto level = static_cast<level_t>(rng.uniform_int(0, 3));
    expect_same_boxes(cluster_runs(broken_runs(pts, rng), level, cfg),
                      oracle::cluster_flags(pts, level, cfg), trial);
  }
}

/// Every cell of each box, listed box by box.
std::vector<IntVec> cells_of(std::initializer_list<Box> blocks) {
  std::vector<IntVec> pts;
  for (const Box& b : blocks)
    for (coord_t z = b.lo().z; z <= b.hi().z; ++z)
      for (coord_t y = b.lo().y; y <= b.hi().y; ++y)
        for (coord_t x = b.lo().x; x <= b.hi().x; ++x)
          pts.emplace_back(x, y, z);
  return pts;
}

/// A config that cuts every node it can: only efficiency stops a split.
ClusterConfig strict_config(real_t efficiency) {
  ClusterConfig cfg;
  cfg.efficiency = efficiency;
  cfg.min_box_size = 2;
  cfg.small_box_cells = 1;
  return cfg;
}

/// The library gives `want` on `pts`, and so does the oracle, whose census
/// is returned so a test can show which cuts produced those boxes.
oracle::ClusterCensus expect_boxes(const std::vector<IntVec>& pts,
                                   const ClusterConfig& cfg,
                                   const std::vector<Box>& want) {
  oracle::ClusterCensus census;
  expect_same_boxes(oracle::cluster_flags(pts, 0, cfg, &census), want, 0);
  expect_same_boxes(cluster_flags(pts, 0, cfg), want, 0);
  return census;
}

// The hand-built clouds below each take one way of deriving children's
// signatures from the parent's; the expected boxes are worked by hand.

TEST(ClusterRuns, XCutSplitsStraddlingRunsAndTightensTheSmallerSide) {
  // A comb in the z = 0 plane: a 4x16 column with two 12x2 teeth to its
  // right, at y 0..1 and 4..5.  The only cut is the x inflection at
  // x = 4, which splits the teeth's runs.  The teeth (48 cells) are the
  // smaller child: they add up their split-off pieces, their box shrinks
  // to y 0..5, and at 2/3 full they are cut again at the y = 2..3 hole,
  // which reads those pieces once more.
  const auto pts = cells_of({Box(IntVec(0, 0, 0), IntVec(3, 15, 0)),
                             Box(IntVec(4, 0, 0), IntVec(15, 1, 0)),
                             Box(IntVec(4, 4, 0), IntVec(15, 5, 0))});
  const auto census = expect_boxes(
      pts, strict_config(0.9),
      {Box(IntVec(0, 0, 0), IntVec(3, 15, 0)),
       Box(IntVec(4, 0, 0), IntVec(15, 1, 0)),
       Box(IntVec(4, 4, 0), IntVec(15, 5, 0))});
  EXPECT_EQ(census.cuts[0][oracle::ClusterCensus::kInflection], 1);
  EXPECT_EQ(census.run_splitting_x_cuts, 1);
  EXPECT_EQ(census.cuts[1][oracle::ClusterCensus::kHole], 1);
}

TEST(ClusterRuns, LargerChildTightensOnUncutAxesAfterSubtraction) {
  // A 8x4x4 block and a 4x4x2 block beyond it in x, y and z, with empty
  // planes y = 4, 5 between them.  The y hole cut leaves the big block as
  // the larger child, whose x and z signatures are the parent's minus the
  // small block's: zero on x 8..11, so its box loses those planes.
  const auto pts = cells_of({Box(IntVec(0, 0, 0), IntVec(7, 3, 3)),
                             Box(IntVec(8, 6, 2), IntVec(11, 9, 3))});
  const auto census = expect_boxes(
      pts, strict_config(0.9),
      {Box(IntVec(0, 0, 0), IntVec(7, 3, 3)),
       Box(IntVec(8, 6, 2), IntVec(11, 9, 3))});
  EXPECT_EQ(census.cuts[1][oracle::ClusterCensus::kHole], 1);
}

TEST(ClusterRuns, EqualHalvesAcrossAZCut) {
  // Two 4x4x4 blocks, overlapping in x and y, with empty planes z = 4..7
  // between them.  The halves hold equal counts, so the left one adds up
  // its runs and the right one is derived: zero on x 0..1 and y 0..1.
  const auto pts = cells_of({Box(IntVec(0, 0, 0), IntVec(3, 3, 3)),
                             Box(IntVec(2, 2, 8), IntVec(5, 5, 11))});
  const auto census = expect_boxes(
      pts, strict_config(0.9),
      {Box(IntVec(0, 0, 0), IntVec(3, 3, 3)),
       Box(IntVec(2, 2, 8), IntVec(5, 5, 11))});
  EXPECT_EQ(census.cuts[2][oracle::ClusterCensus::kHole], 1);
}

TEST(ClusterRuns, DerivedSignaturesDriveTheNextCut) {
  // Three blocks along y, two planes thick in z.  The first hole cut
  // (y = 12) splits off the smallest block; the other two form a derived
  // child too sparse to keep, whose own derived y signature has the hole
  // at y = 22, and whose right child (C, x 4..7) is derived from it in
  // turn.
  const auto pts = cells_of({Box(IntVec(0, 0, 0), IntVec(3, 3, 1)),
                             Box(IntVec(0, 12, 0), IntVec(3, 19, 1)),
                             Box(IntVec(4, 24, 0), IntVec(7, 31, 1))});
  const auto census = expect_boxes(
      pts, strict_config(0.9),
      {Box(IntVec(0, 0, 0), IntVec(3, 3, 1)),
       Box(IntVec(0, 12, 0), IntVec(3, 19, 1)),
       Box(IntVec(4, 24, 0), IntVec(7, 31, 1))});
  EXPECT_EQ(census.cuts[1][oracle::ClusterCensus::kHole], 2);
}

TEST(ClusterRuns, ValidatesInput) {
  EXPECT_TRUE(cluster_runs({}, 0, ClusterConfig{}).empty());
  EXPECT_THROW(cluster_runs({FlagRun{3, 2, 0, 0}}, 0, ClusterConfig{}),
               Error);
  ClusterConfig cfg;
  cfg.efficiency = 0;
  EXPECT_THROW(cluster_runs({}, 0, cfg), Error);
  EXPECT_THROW(cluster_flags({}, 0, cfg), Error);
}

/// A random trace configuration whose finest level stays small enough for
/// the cell-by-cell oracle: at most 2^16 rows, and 2^18 cells when the band
/// is wide enough to flag whole rows.
TraceConfig fuzz_trace_config(Rng& rng) {
  TraceConfig cfg;
  const IntVec lo(rng.uniform_int(-8, 8), rng.uniform_int(-8, 8),
                  rng.uniform_int(-8, 8));
  const IntVec ext(rng.uniform_int(8, 32), rng.uniform_int(2, 12),
                   rng.uniform_int(1, 8));
  cfg.domain = Box::from_extent(lo, ext, 0);
  cfg.max_levels = static_cast<int>(rng.uniform_int(1, 5));
  const real_t extreme[] = {1e6, 1e19, 1e300};
  const bool wide = rng.uniform() < 0.1;
  cfg.band_halfwidth =
      wide ? extreme[rng.uniform_int(0, 2)] : rng.uniform(0.05, 4.0);
  cfg.waves_y = static_cast<int>(rng.uniform_int(0, 4));
  cfg.waves_z = static_cast<int>(rng.uniform_int(0, 3));
  cfg.interface_x0 = rng.uniform(0.0, 1.0);
  cfg.speed = rng.uniform(0.0, 0.1);
  // Occasionally far larger than the domain, so the band misses whole
  // parent boxes on many rows and those rows take the skip.
  const bool big = rng.uniform() < 0.15;
  cfg.amplitude0 = big ? rng.uniform(20.0, 200.0) : rng.uniform(0.0, 2.0);
  cfg.growth = rng.uniform(0.0, 0.5);
  cfg.max_amplitude = big ? 1e4 : rng.uniform(0.5, 6.0);
  cfg.cluster = fuzz_cluster_config(rng);
  const auto finest = [&cfg](int dims) {
    std::int64_t s = 1;
    for (int l = 1; l < cfg.max_levels; ++l) s *= kRefinementRatio;
    std::int64_t n = cfg.domain.extent().y * cfg.domain.extent().z * s * s;
    if (dims == 3) n *= cfg.domain.extent().x * s;
    return n;
  };
  while (cfg.max_levels > 1 &&
         (finest(2) > (1 << 16) || (wide && finest(3) > (1 << 18))))
    --cfg.max_levels;
  return cfg;
}

TEST(ClusterRuns, TraceMatchesCellByCellOracle) {
  Rng rng(97);
  oracle::ClusterCensus census;
  for (int trial = 0; trial < 200; ++trial) {
    const TraceConfig cfg = fuzz_trace_config(rng);
    const SyntheticAmrTrace trace(cfg);
    for (int rep = 0; rep < 2; ++rep) {
      const int epoch = static_cast<int>(rng.uniform_int(0, 40));
      const BoxList got = trace.boxes_at_epoch(epoch);
      const BoxList want = oracle::boxes_at_epoch(cfg, epoch, &census);
      expect_same_boxes(got.boxes(), want.boxes(), trial);
    }
  }
  expect_every_path(census);
}

TEST(ClusterRuns, PaperTraceMatchesCellByCellOracle) {
  // The paper's 128x32x32 base with three factor-2 refinements, the
  // configuration the experiment drivers replay.
  TraceConfig cfg;
  const SyntheticAmrTrace trace(cfg);
  for (int epoch : {0, 5, 11}) {
    const BoxList got = trace.boxes_at_epoch(epoch);
    expect_same_boxes(got.boxes(), oracle::boxes_at_epoch(cfg, epoch).boxes(),
                      epoch);
  }
}

}  // namespace
}  // namespace ssamr
