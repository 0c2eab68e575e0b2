// Tests for the synthetic SAMR workload trace.

#include <gtest/gtest.h>

#include <limits>

#include "amr/particles.hpp"
#include "amr/trace_generator.hpp"
#include "amr/workload.hpp"
#include "geom/box_algebra.hpp"

namespace ssamr {
namespace {

TraceConfig small_trace() {
  TraceConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  cfg.max_levels = 3;
  cfg.cluster.min_box_size = 2;
  cfg.cluster.small_box_cells = 16;
  return cfg;
}

TEST(SyntheticTrace, Deterministic) {
  SyntheticAmrTrace a(small_trace()), b(small_trace());
  for (int e : {0, 3, 9}) {
    const BoxList ba = a.boxes_at_epoch(e);
    const BoxList bb = b.boxes_at_epoch(e);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) EXPECT_EQ(ba[i], bb[i]);
  }
}

TEST(SyntheticTrace, Level0IsAlwaysTheDomain) {
  SyntheticAmrTrace t(small_trace());
  for (int e = 0; e < 10; ++e) {
    const BoxList boxes = t.boxes_at_epoch(e);
    ASSERT_FALSE(boxes.empty());
    EXPECT_EQ(boxes[0], small_trace().domain);
  }
}

TEST(SyntheticTrace, ProducesRefinedLevels) {
  SyntheticAmrTrace t(small_trace());
  const BoxList boxes = t.boxes_at_epoch(0);
  level_t deepest = 0;
  for (const Box& b : boxes) deepest = std::max(deepest, b.level());
  EXPECT_EQ(deepest, 2);  // max_levels - 1
}

TEST(SyntheticTrace, BoxesStayInsideTheirLevelDomain) {
  SyntheticAmrTrace t(small_trace());
  for (int e = 0; e < 20; ++e) {
    for (const Box& b : t.boxes_at_epoch(e)) {
      const Box dom = b.level() == 0
                          ? small_trace().domain
                          : small_trace().domain.refined_by(b.level());
      EXPECT_TRUE(dom.contains(b)) << "epoch " << e << " box " << b;
    }
  }
}

TEST(SyntheticTrace, ProperNestingAcrossLevels) {
  SyntheticAmrTrace t(small_trace());
  for (int e : {0, 5, 12}) {
    const BoxList boxes = t.boxes_at_epoch(e);
    std::vector<Box> by_level[4];
    for (const Box& b : boxes)
      by_level[static_cast<std::size_t>(b.level())].push_back(b);
    for (level_t l = 2; l < 3; ++l) {
      for (const Box& b : by_level[static_cast<std::size_t>(l)]) {
        const Box coarse = b.coarsened();
        EXPECT_TRUE(
            box_difference(coarse, by_level[static_cast<std::size_t>(l - 1)])
                .empty())
            << "epoch " << e << " box " << b << " not nested";
      }
    }
  }
}

TEST(SyntheticTrace, SameLevelBoxesDisjoint) {
  SyntheticAmrTrace t(small_trace());
  for (int e : {0, 7}) {
    const BoxList boxes = t.boxes_at_epoch(e);
    EXPECT_FALSE(boxes.has_overlap());
  }
}

TEST(SyntheticTrace, InterfaceMovesAndReflects) {
  TraceConfig cfg = small_trace();
  cfg.speed = 0.1;
  SyntheticAmrTrace t(cfg);
  EXPECT_GT(t.interface_position(1), t.interface_position(0));
  // Over many epochs the position must stay within the reflecting margins.
  for (int e = 0; e < 100; ++e) {
    const real_t pos = t.interface_position(e);
    EXPECT_GE(pos, 0.05);
    EXPECT_LE(pos, 0.95);
  }
  // And it must actually come back down at some point (reflection).
  bool decreased = false;
  for (int e = 1; e < 50; ++e)
    if (t.interface_position(e) < t.interface_position(e - 1))
      decreased = true;
  EXPECT_TRUE(decreased);
}

TEST(SyntheticTrace, AmplitudeSaturationBoundsWork) {
  TraceConfig cfg = small_trace();
  cfg.growth = 0.5;
  cfg.max_amplitude = 1.0;
  SyntheticAmrTrace t(cfg);
  WorkModel wm;
  const real_t w10 = total_work(t.boxes_at_epoch(10), wm);
  const real_t w40 = total_work(t.boxes_at_epoch(40), wm);
  // After saturation the workload fluctuates but does not keep growing.
  EXPECT_LT(w40, w10 * 1.5);
}

TEST(SyntheticTrace, RejectsBadConfig) {
  TraceConfig cfg = small_trace();
  cfg.max_levels = 0;
  EXPECT_THROW(SyntheticAmrTrace{cfg}, Error);
  cfg = small_trace();
  cfg.band_halfwidth = 0;
  EXPECT_THROW(SyntheticAmrTrace{cfg}, Error);
  SyntheticAmrTrace ok(small_trace());
  EXPECT_THROW(ok.boxes_at_epoch(-1), Error);
}

TEST(SyntheticTrace, RejectsNonFiniteParameters) {
  // A NaN band edge would reach the integer casts of the flag runs.
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  real_t TraceConfig::*const fields[] = {
      &TraceConfig::interface_x0, &TraceConfig::speed,
      &TraceConfig::amplitude0, &TraceConfig::growth,
      &TraceConfig::max_amplitude};
  for (real_t TraceConfig::*field : fields)
    for (const real_t bad : {nan, inf, -inf}) {
      TraceConfig cfg = small_trace();
      cfg.*field = bad;
      EXPECT_THROW(SyntheticAmrTrace{cfg}, Error);
    }
}

TEST(WorkModel, BoxWorkScalesWithLevel) {
  const WorkModel wm{};
  const Box c = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 0);
  const Box f = Box::from_extent(IntVec(0, 0, 0), IntVec(4, 4, 4), 2);
  EXPECT_DOUBLE_EQ(box_work(c, wm), 64.0);
  EXPECT_DOUBLE_EQ(box_work(f, wm), 64.0 * 4.0);  // updated r^l times
}

TEST(WorkModel, TotalAndPerBoxConsistent) {
  BoxList l;
  l.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2), 0));
  l.push_back(Box::from_extent(IntVec(8, 0, 0), IntVec(2, 2, 2), 1));
  const WorkModel wm;
  const auto per = per_box_work(l, wm);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_DOUBLE_EQ(per[0] + per[1], total_work(l, wm));
}

/// A particle-priced work model over small_trace()'s domain.
struct ParticleWork {
  ParticleField field;
  WorkModel model;

  explicit ParticleWork(real_t center_x) {
    ParticleCloudConfig pc;
    pc.count = 2000;
    pc.sigma_x = 4.0;
    field = ParticleField::gaussian_cloud(small_trace().domain, pc, center_x);
    model.cost_per_particle = Work{3.0};
    model.particles = &field;
  }
  ParticleWork(const ParticleWork&) = delete;
  ParticleWork& operator=(const ParticleWork&) = delete;
};

TEST(WorkModel, ParticleTermScalesWithLevelLikeCells) {
  // cells · r^l + particles_in · r^l · cost_per_particle: one region
  // refined level by level holds the same particles, updated r^l times.
  const ParticleWork pw(0.5);
  ASSERT_TRUE(pw.model.has_particles());
  const Box b0 = Box::from_extent(IntVec(12, 2, 2), IntVec(8, 4, 4), 0);
  const std::int64_t np = pw.field.count_in(b0);
  ASSERT_GT(np, 0);
  real_t updates = 1;
  for (int l = 0; l <= 3; ++l) {
    const Box b = l == 0 ? b0 : b0.refined_by(l);
    EXPECT_EQ(pw.field.count_in(b), np) << b;
    EXPECT_EQ(box_work(b, WorkModel{}),
              static_cast<real_t>(b.cells()) * updates)
        << b;
    EXPECT_EQ(box_work(b, pw.model),
              static_cast<real_t>(b.cells()) * updates +
                  static_cast<real_t>(np) * updates * 3.0)
        << b;
    updates *= static_cast<real_t>(kRefinementRatio);
  }
}

TEST(WorkModel, TotalWorkIsTheLeftFoldOfBoxWork) {
  // Partitioners that hold per-box works fold them left from 0 where they
  // once called total_work, so the two must agree bit for bit.
  const ParticleWork pw(0.3);
  SyntheticAmrTrace t(small_trace());
  for (const int e : {0, 7}) {
    const BoxList l = t.boxes_at_epoch(e);
    ASSERT_GT(l.size(), 3u);
    for (const WorkModel& wm : {WorkModel{}, pw.model}) {
      const auto per = per_box_work(l, wm);
      ASSERT_EQ(per.size(), l.size());
      real_t fold = 0;
      for (std::size_t i = 0; i < l.size(); ++i) {
        EXPECT_EQ(per[i], box_work(l[i], wm)) << l[i];
        fold += per[i];
      }
      EXPECT_EQ(total_work(l, wm), fold) << "epoch " << e;
    }
  }
}

}  // namespace
}  // namespace ssamr
