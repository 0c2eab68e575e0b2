// Integration tests: Berger–Oliger time stepping with the advection and
// Euler kernels, including regridding.

#include <gtest/gtest.h>

#include <cmath>

#include "amr/integrator.hpp"
#include "solver/advection.hpp"
#include "solver/euler.hpp"
#include "solver/richtmyer_meshkov.hpp"

namespace ssamr {
namespace {

HierarchyConfig adv_config(int max_levels = 2) {
  HierarchyConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  cfg.max_levels = max_levels;
  cfg.ncomp = 1;
  cfg.ghost = 1;
  cfg.min_box_size = 2;
  return cfg;
}

IntegratorConfig adv_int_config() {
  IntegratorConfig cfg;
  cfg.regrid_interval = 2;
  cfg.dx0 = 1.0 / 16.0;
  cfg.cluster.min_box_size = 2;
  cfg.cluster.small_box_cells = 8;
  return cfg;
}

TEST(Integrator, RejectsMismatchedOperator) {
  HierarchyConfig hc = adv_config();
  hc.ncomp = 2;  // advection has 1 component
  GridHierarchy h(hc);
  AdvectionOperator op(1, 0, 0, 0.3, 0.25, 0.25, 0.08);
  GradientFlagger fl(0, 0.05);
  EXPECT_THROW(BergerOliger(h, op, fl, adv_int_config()), Error);
}

TEST(Integrator, InitializeBuildsRefinedLevels) {
  GridHierarchy h(adv_config(3));
  AdvectionOperator op(1, 0, 0, 0.3, 0.25, 0.25, 0.08);
  GradientFlagger fl(0, 0.05);
  BergerOliger bo(h, op, fl, adv_int_config());
  bo.initialize();
  // The Gaussian blob must have triggered refinement.
  EXPECT_GE(h.num_levels(), 2);
  EXPECT_GT(h.level(1).num_patches(), 0u);
}

TEST(Integrator, DtSatisfiesCflOnFinestLevel) {
  GridHierarchy h(adv_config(2));
  AdvectionOperator op(2, 1, 0, 0.3, 0.25, 0.25, 0.08);
  GradientFlagger fl(0, 0.05);
  BergerOliger bo(h, op, fl, adv_int_config());
  bo.initialize();
  const real_t dt = bo.compute_dt();
  const int finest = h.num_levels() - 1;
  const real_t dx_f = bo.dx_at(finest);
  const real_t dt_f = dt / std::pow(2.0, finest);
  EXPECT_LE(dt_f * 2.0 /*max speed*/, 0.4 * dx_f + 1e-12);
}

TEST(Integrator, BlobAdvectsAtTheRightSpeed) {
  // Single level (no refinement) so the check is purely the kernel's.
  GridHierarchy h(adv_config(1));
  AdvectionOperator op(1.0, 0.0, 0.0, 0.3, 0.25, 0.25, 0.1);
  GradientFlagger fl(0, 1e9);  // never flags
  IntegratorConfig ic = adv_int_config();
  GridHierarchy href(adv_config(1));
  BergerOliger bo(h, op, fl, ic);
  bo.initialize();
  real_t time = 0;
  while (time < 0.2) time += bo.advance_step();
  // Locate the maximum along the x row through the blob centre.
  const Patch& p = h.level(0).patch(0);
  coord_t argmax = 0;
  real_t best = -1;
  for (coord_t i = 0; i < 16; ++i) {
    const real_t v = p.data()(0, i, 2, 2);
    if (v > best) {
      best = v;
      argmax = i;
    }
  }
  const real_t x_max = (static_cast<real_t>(argmax) + 0.5) / 16.0;
  EXPECT_NEAR(x_max, 0.3 + time, 1.5 / 16.0);
  EXPECT_GT(best, 0.1);  // blob not annihilated (diffused but present)
}

TEST(Integrator, AmrTracksTheMovingFeature) {
  GridHierarchy h(adv_config(2));
  AdvectionOperator op(1.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.12);
  GradientFlagger fl(0, 0.1);
  BergerOliger bo(h, op, fl, adv_int_config());
  bo.initialize();
  ASSERT_GE(h.num_levels(), 2);
  const Box before = h.level(1).box_list()[0];
  real_t time = 0;
  while (time < 0.15) time += bo.advance_step();
  ASSERT_GE(h.num_levels(), 2);
  // The refined region followed the blob in +x.
  Box after = h.level(1).box_list()[0];
  for (const Box& b : h.level(1).box_list())
    after = bounding_union(after, b);
  EXPECT_GT(after.hi().x, before.hi().x);
  EXPECT_GT(bo.regrid_count(), 1);
}

TEST(Integrator, AmrSolutionClosetoUniformFineSolution) {
  // Advect with AMR and compare the final max position against the exact
  // translation — a weak but meaningful accuracy check.
  GridHierarchy h(adv_config(2));
  AdvectionOperator op(1.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.1);
  GradientFlagger fl(0, 0.3);
  BergerOliger bo(h, op, fl, adv_int_config());
  bo.initialize();
  real_t time = 0;
  for (int s = 0; s < 8; ++s) time += bo.advance_step();
  real_t linf = 0;
  const GridLevel& lvl = h.level(0);
  for (const Patch& p : lvl.patches()) {
    const Box& b = p.box();
    for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
      for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
        for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
          const real_t exact =
              op.exact((static_cast<real_t>(i) + 0.5) / 16.0,
                       (static_cast<real_t>(j) + 0.5) / 16.0,
                       (static_cast<real_t>(k) + 0.5) / 16.0, time);
          linf = std::max(linf,
                          std::abs(p.data()(0, i, j, k) - exact));
        }
  }
  // First-order upwind on a 16-cell mesh is diffusive; just require the
  // error to stay well below the solution amplitude.
  EXPECT_LT(linf, 0.5);
}

// ---- Euler ---------------------------------------------------------------

TEST(Euler, PrimitiveConservedRoundtrip) {
  const EulerPrimitive p{1.4, 0.3, -0.2, 0.1, 2.5};
  const EulerPrimitive q = to_primitive(to_conserved(p, 1.4), 1.4);
  EXPECT_NEAR(q.rho, p.rho, 1e-12);
  EXPECT_NEAR(q.u, p.u, 1e-12);
  EXPECT_NEAR(q.v, p.v, 1e-12);
  EXPECT_NEAR(q.w, p.w, 1e-12);
  EXPECT_NEAR(q.p, p.p, 1e-12);
}

TEST(Euler, FluxOfUniformFlowMatchesAnalytic) {
  const EulerPrimitive p{2.0, 3.0, 0.0, 0.0, 5.0};
  const EulerState c = to_conserved(p, 1.4);
  const EulerState f = euler_flux(c, 0, 1.4);
  EXPECT_NEAR(f[kRho], 6.0, 1e-12);                      // rho u
  EXPECT_NEAR(f[kMomX], 2.0 * 9.0 + 5.0, 1e-12);         // rho u² + p
  EXPECT_NEAR(f[kEner], (c[kEner] + 5.0) * 3.0, 1e-12);  // (E+p) u
}

TEST(Euler, RusanovFluxConsistent) {
  // F(U,U) == F(U): consistency of the numerical flux.
  const EulerState c = to_conserved({1.0, 0.5, 0.1, -0.3, 1.0}, 1.4);
  const EulerState fr = rusanov_flux(c, c, 1, 1.4);
  const EulerState fe = euler_flux(c, 1, 1.4);
  for (int i = 0; i < kEulerNcomp; ++i) EXPECT_NEAR(fr[i], fe[i], 1e-12);
}

TEST(Euler, UniformStateIsSteady) {
  HierarchyConfig hc = adv_config(1);
  hc.ncomp = kEulerNcomp;
  GridHierarchy h(hc);
  EulerOperator op(1.4, [](real_t, real_t, real_t) {
    return EulerPrimitive{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  GradientFlagger fl(kRho, 1e9);
  IntegratorConfig ic = adv_int_config();
  BergerOliger bo(h, op, fl, ic);
  bo.initialize();
  for (int s = 0; s < 5; ++s) bo.advance_step();
  const Patch& p = h.level(0).patch(0);
  for (coord_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(p.data()(kRho, i, 3, 3), 1.0, 1e-12);
    EXPECT_NEAR(p.data()(kMomX, i, 3, 3), 0.0, 1e-12);
  }
}

TEST(Euler, RankineHugoniotLimits) {
  // Across a Mach-1+ shock the jump tends to zero.
  const EulerPrimitive weak =
      rankine_hugoniot_post_shock(1.0, 1.0, 1.0001, 1.4);
  EXPECT_NEAR(weak.rho, 1.0, 1e-3);
  EXPECT_NEAR(weak.p, 1.0, 1e-3);
  // Strong shock density ratio approaches (γ+1)/(γ-1) = 6 for γ=1.4.
  const EulerPrimitive strong =
      rankine_hugoniot_post_shock(1.0, 1.0, 50.0, 1.4);
  EXPECT_NEAR(strong.rho, 6.0, 0.02);
  EXPECT_THROW(rankine_hugoniot_post_shock(1.0, 1.0, 0.9, 1.4), Error);
}

TEST(Euler, ShockTubePropagatesRightward) {
  // A Sod-like shock along x: after some steps the pressure jump has moved.
  HierarchyConfig hc = adv_config(1);
  hc.ncomp = kEulerNcomp;
  hc.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 4, 4), 0);
  GridHierarchy h(hc);
  EulerOperator op(1.4, [](real_t x, real_t, real_t) {
    EulerPrimitive s;
    s.rho = x < 0.5 ? 1.0 : 0.125;
    s.p = x < 0.5 ? 1.0 : 0.1;
    return s;
  });
  GradientFlagger fl(kRho, 1e9);
  IntegratorConfig ic = adv_int_config();
  ic.dx0 = 1.0 / 32.0;
  BergerOliger bo(h, op, fl, ic);
  bo.initialize();
  real_t t = 0;
  while (t < 0.1) t += bo.advance_step();
  const Patch& p = h.level(0).patch(0);
  // Density at x≈0.66 must exceed its initial 0.125 (shock passed).
  EXPECT_GT(p.data()(kRho, 21, 2, 2), 0.15);
  // Mass must be essentially conserved (outflow BC, nothing left yet).
  real_t mass = 0;
  for (coord_t k = 0; k < 4; ++k)
    for (coord_t j = 0; j < 4; ++j)
      for (coord_t i = 0; i < 32; ++i) mass += p.data()(kRho, i, j, k);
  EXPECT_NEAR(mass, (1.0 * 16 + 0.125 * 16) * 16, mass * 0.02);
}

TEST(RichtmyerMeshkov, InitialConditionLayout) {
  RichtmyerMeshkovConfig cfg;
  const auto ic = make_rm_initial_condition(cfg);
  const EulerPrimitive post = ic(0.01, 0.1, 0.1);
  const EulerPrimitive light = ic(0.22, 0.1, 0.1);
  const EulerPrimitive heavy = ic(0.9, 0.1, 0.1);
  EXPECT_GT(post.u, 0.0);       // post-shock gas moves toward interface
  EXPECT_GT(post.p, cfg.p0);    // compressed
  EXPECT_NEAR(light.rho, cfg.rho_light, 1e-12);
  EXPECT_NEAR(heavy.rho, cfg.rho_light * cfg.density_ratio, 1e-12);
  EXPECT_NEAR(light.p, cfg.p0, 1e-12);
}

TEST(RichtmyerMeshkov, InterfaceIsPerturbed) {
  RichtmyerMeshkovConfig cfg;
  cfg.amplitude = 0.05;
  const auto ic = make_rm_initial_condition(cfg);
  // At fixed x slightly right of the mean interface, density depends on y.
  const real_t x = (cfg.interface_x + 0.02) * cfg.lx;
  bool saw_light = false, saw_heavy = false;
  for (int j = 0; j < 16; ++j) {
    const real_t y = (j + 0.5) / 16.0 * cfg.ly;
    const real_t rho = ic(x, y, 0.1 * cfg.lz).rho;
    saw_light |= rho < 1.5;
    saw_heavy |= rho > 2.5;
  }
  EXPECT_TRUE(saw_light);
  EXPECT_TRUE(saw_heavy);
}

TEST(RichtmyerMeshkov, ShockReachesAndDeformsInterface) {
  // Small end-to-end RM run on the real Euler solver with AMR: the
  // interface band must refine and move right after shock passage.
  HierarchyConfig hc;
  hc.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  hc.ncomp = kEulerNcomp;
  hc.ghost = 1;
  hc.max_levels = 2;
  hc.min_box_size = 2;
  GridHierarchy h(hc);
  RichtmyerMeshkovConfig rm;
  rm.lx = 1.0;
  rm.ly = rm.lz = 0.25;
  EulerOperator op = make_rm_operator(rm);
  GradientFlagger fl(kRho, 1.0);
  IntegratorConfig ic;
  ic.dx0 = 1.0 / 32.0;
  ic.regrid_interval = 2;
  ic.cluster.min_box_size = 2;
  ic.cluster.small_box_cells = 8;
  BergerOliger bo(h, op, fl, ic);
  bo.initialize();
  EXPECT_GE(h.num_levels(), 2);  // interface + shock flagged
  for (int s = 0; s < 6; ++s) bo.advance_step();
  // Total x-momentum must be positive: the shock drives gas rightward.
  real_t momx = 0;
  for (const Patch& p : h.level(0).patches()) {
    const Box& b = p.box();
    for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
      for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
        for (coord_t i = b.lo().x; i <= b.hi().x; ++i)
          momx += p.data()(kMomX, i, j, k);
  }
  EXPECT_GT(momx, 0.0);
}

}  // namespace
}  // namespace ssamr
