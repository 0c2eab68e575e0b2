// Randomized differential tests for the distributed-metadata layer: the
// SFC key index and the local box views must agree *exactly* with
// brute-force reference implementations on anisotropic nested lattices —
// including negative domain offsets (the per-level coordinate bias) and
// elongated boxes (the max-extent anchor window).  The index is a pure
// lookup accelerator: any divergence from the O(N²) scan is a bug, never a
// tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "hdda/local_view.hpp"
#include "lattice.hpp"
#include "sfc/key_index.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

/// Anisotropic nested lattice: jittered level-0 boxes with holes, level-1
/// children (coordinates doubled) and occasional level-2 grandchildren.
/// `origin` shifts the whole family, exercising the per-level key bias.
std::vector<Box> random_lattice(Rng& rng, IntVec origin) {
  std::vector<Box> out;
  const coord_t nx = rng.uniform_int(2, 6);
  const coord_t ny = rng.uniform_int(1, 5);
  const coord_t nz = rng.uniform_int(1, 3);
  for (coord_t i = 0; i < nx; ++i)
    for (coord_t j = 0; j < ny; ++j)
      for (coord_t k = 0; k < nz; ++k) {
        if (rng.uniform() < 0.2) continue;  // holes
        // Elongated in a random direction: extents differ by up to ~6x.
        const IntVec ext(4 + 4 * rng.uniform_int(0, 5),
                         4 + 2 * rng.uniform_int(0, 2),
                         4 + 4 * rng.uniform_int(0, 3));
        const IntVec lo(origin.x + i * 28, origin.y + j * 20,
                        origin.z + k * 24);
        out.push_back(Box::from_extent(lo, ext, 0));
        if (rng.uniform() < 0.5) {
          out.push_back(Box::from_extent(IntVec(lo.x * 2, lo.y * 2, lo.z * 2),
                                         IntVec(ext.x, ext.y, 4), 1));
          if (rng.uniform() < 0.3)
            out.push_back(Box::from_extent(
                IntVec(lo.x * 4, lo.y * 4, lo.z * 4), IntVec(4, ext.y, 4), 2));
        }
      }
  if (out.empty())
    out.push_back(Box::from_extent(origin, IntVec(8, 8, 8), 0));
  return out;
}

/// Brute-force O(N²) reference: ids of boxes at region.level() whose
/// extent intersects region.
std::vector<std::uint32_t> brute_query(const std::vector<Box>& boxes,
                                       const Box& region) {
  std::vector<std::uint32_t> out;
  if (region.empty()) return out;
  for (std::size_t i = 0; i < boxes.size(); ++i)
    if (!boxes[i].empty() && boxes[i].level() == region.level() &&
        boxes[i].intersects(region))
      out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

TEST(SfcKeyIndexFuzz, QueriesMatchBruteForceOnNestedLattices) {
  Rng rng(0x1de'caf);
  for (int trial = 0; trial < 25; ++trial) {
    // Negative origins in some trials: the level bias must absorb them.
    const IntVec origin(trial % 3 == 1 ? -600 : 0,
                        trial % 4 == 2 ? -250 : 0, 0);
    const std::vector<Box> boxes = random_lattice(rng, origin);
    const SfcKeyIndex index(boxes);
    std::vector<std::uint32_t> got;
    // Ghost-grown self-queries: exactly the local-view discovery pattern.
    for (const Box& b : boxes) {
      const Box region = b.grown(2);
      index.query(region, got);
      EXPECT_EQ(got, brute_query(boxes, region)) << "trial " << trial;
    }
    // Arbitrary probe regions, including far-away misses.
    for (int probe = 0; probe < 20; ++probe) {
      const Box region = Box::from_extent(
          IntVec(origin.x + rng.uniform_int(-40, 200),
                 origin.y + rng.uniform_int(-40, 140),
                 rng.uniform_int(-20, 80)),
          IntVec(1 + rng.uniform_int(0, 50), 1 + rng.uniform_int(0, 30),
                 1 + rng.uniform_int(0, 30)),
          rng.uniform_int(0, 2));
      index.query(region, got);
      EXPECT_EQ(got, brute_query(boxes, region)) << "trial " << trial;
    }
  }
}

TEST(SfcKeyIndexFuzz, StatsStayNearLinearOnUniformLattices) {
  // A quasi-uniform lattice is the design point: when every box shares one
  // extent, the anchor window holds exactly the true neighbors.
  std::vector<Box> boxes;
  for (coord_t i = 0; i < 12; ++i)
    for (coord_t j = 0; j < 12; ++j)
      boxes.push_back(
          Box::from_extent(IntVec(i * 8, j * 8, 0), IntVec(8, 8, 8), 0));
  const SfcKeyIndex index(boxes);
  std::vector<std::uint32_t> got;
  for (const Box& b : boxes) index.query(b.grown(2), got);
  const auto& st = index.stats();
  EXPECT_EQ(st.queries, static_cast<std::int64_t>(boxes.size()));
  EXPECT_GT(st.hits, 0);
  // The window is exact: every scanned anchor is a hit.
  EXPECT_EQ(st.candidates, st.hits);
}

TEST(LocalViewFuzz, LinksAndHaloMatchBruteForceAdjacency) {
  Rng rng(0xa11'0ca1);
  const coord_t ghost = 2;
  std::size_t links = 0;
  // The first 20 trials use the gapped lattice, whose shells reach no
  // neighbor; the next 20 use touching lattices, so links and halos exist.
  for (int trial = 0; trial < 40; ++trial) {
    const IntVec origin(trial % 5 == 3 ? -320 : 0, 0, 0);
    const std::vector<Box> boxes = trial < 20
                                       ? random_lattice(rng, origin)
                                       : fuzz::touching_lattice(rng, origin);
    const int nranks = 1 + static_cast<int>(rng.uniform_int(1, 6));
    std::vector<rank_t> owners(boxes.size());
    for (auto& o : owners)
      o = static_cast<rank_t>(rng.uniform_int(0, nranks - 1));

    const SfcKeyIndex index(boxes);
    const auto views = build_local_views(boxes, owners, nranks, ghost, index);
    ASSERT_EQ(views.size(), static_cast<std::size_t>(nranks));
    for (const LocalBoxView& view : views) links += view.links.size();

    // Brute adjacency: every directed cross-owner same-level pair whose
    // grown owner box meets the neighbor.
    std::vector<std::set<std::pair<std::uint32_t, std::uint32_t>>> expect(
        static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      for (std::size_t j = 0; j < boxes.size(); ++j) {
        if (i == j || owners[i] == owners[j]) continue;
        if (boxes[i].level() != boxes[j].level()) continue;
        if (!boxes[i].grown(ghost).intersects(boxes[j])) continue;
        expect[static_cast<std::size_t>(owners[i])].insert(
            {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
      }

    for (const LocalBoxView& view : views) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " rank " +
                   std::to_string(view.rank));
      const auto& want = expect[static_cast<std::size_t>(view.rank)];
      ASSERT_EQ(view.links.size(), want.size());
      std::set<std::uint32_t> halo_ids;
      std::size_t pos = 0;
      for (const auto& link : want) {
        EXPECT_EQ(view.links[pos].owned, link.first);
        EXPECT_EQ(view.links[pos].neighbor, link.second);
        halo_ids.insert(link.second);
        ++pos;
      }
      // Halo: each distinct neighbor exactly once, curve-ordered, with
      // the owner and anchor key filled from the shared index.
      ASSERT_EQ(view.halo.size(), halo_ids.size());
      for (std::size_t h = 0; h < view.halo.size(); ++h) {
        const HaloBox& hb = view.halo[h];
        EXPECT_TRUE(halo_ids.count(hb.id));
        EXPECT_EQ(hb.owner, owners[hb.id]);
        EXPECT_EQ(hb.key, index.anchor_key(hb.id));
        if (h > 0) {
          EXPECT_TRUE(std::make_pair(view.halo[h - 1].key,
                                     view.halo[h - 1].id) <
                      std::make_pair(hb.key, hb.id));
        }
      }
      // Owned ids ascending and owned by this rank.
      for (std::size_t o = 0; o < view.owned.size(); ++o) {
        EXPECT_EQ(owners[view.owned[o]], view.rank);
        if (o > 0) {
          EXPECT_LT(view.owned[o - 1], view.owned[o]);
        }
      }
    }
  }
  // The touching lattices must actually link boxes, or the test is vacuous.
  EXPECT_GT(links, 100u);
}

}  // namespace
}  // namespace ssamr
