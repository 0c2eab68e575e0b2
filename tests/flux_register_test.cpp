// Tests for conservative refluxing: face identification, and exact
// composite-mass conservation on periodic AMR runs.

#include <gtest/gtest.h>

#include <cmath>

#include "amr/flux_register.hpp"
#include "amr/integrator.hpp"
#include "geom/box_algebra.hpp"
#include "solver/advection.hpp"
#include "solver/euler.hpp"
#include "util/error.hpp"

namespace ssamr {
namespace {

// ---- face identification ---------------------------------------------------

TEST(FluxRegister, CountsBoundaryFacesOfAnInteriorBox) {
  GridLevel coarse(0, 1, 1);
  coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0));
  GridLevel fine(1, 1, 1);
  // Fine box covering coarse cells [4,7]^3 -> coarsened extent 4^3.
  fine.add_patch(Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  FluxRegister reg(coarse, fine,
                   Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0),
                   1);
  EXPECT_EQ(reg.num_faces(), 6u * 16u);  // 6 faces of a 4x4x4 cube
}

TEST(FluxRegister, DomainBoundaryFacesAreNotRegistered) {
  GridLevel coarse(0, 1, 1);
  coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0));
  GridLevel fine(1, 1, 1);
  // Fine region touches the low-x domain face.
  fine.add_patch(Box::from_extent(IntVec(0, 4, 4), IntVec(8, 8, 8), 1));
  FluxRegister reg(coarse, fine,
                   Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0), 1);
  // Coarsened box is 4x4x4 at (0,2,2): one x-face is on the domain
  // boundary, so only 5 sides x 16 faces remain.
  EXPECT_EQ(reg.num_faces(), 5u * 16u);
}

TEST(FluxRegister, InternalFacesBetweenFineBoxesExcluded) {
  GridLevel coarse(0, 1, 1);
  coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0));
  GridLevel fine(1, 1, 1);
  // Two adjacent fine boxes forming an 8x4x4 coarsened slab.
  fine.add_patch(Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  fine.add_patch(Box::from_extent(IntVec(16, 8, 8), IntVec(8, 8, 8), 1));
  FluxRegister reg(coarse, fine,
                   Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0),
                   1);
  // Coarsened slab 8x4x4: surface = 2*(4*4) + 2*(8*4) + 2*(8*4) = 160.
  EXPECT_EQ(reg.num_faces(), 160u);
}

TEST(FluxRegister, OverlappingShadowsRegisterEachFaceOnce) {
  GridLevel coarse(0, 1, 1);
  coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0));
  GridLevel fine(1, 1, 1);
  // Odd x bounds: the fine boxes cover fine x in [8,10] and [11,15], so
  // both coarsened shadows hold the coarse plane x = 5, and the y and z
  // faces around that plane border both shadows.
  fine.add_patch(Box::from_extent(IntVec(8, 8, 8), IntVec(3, 8, 8), 1));
  fine.add_patch(Box::from_extent(IntVec(11, 8, 8), IntVec(5, 8, 8), 1));
  FluxRegister reg(coarse, fine,
                   Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0),
                   1);
  // The shadows' union is the 4x4x4 cube at (4,4,4): 6 sides x 16 faces.
  EXPECT_EQ(reg.num_faces(), 6u * 16u);
}

TEST(FluxRegister, FacesWithoutACoarseNeighbourAreNotRegistered) {
  GridLevel coarse(0, 1, 1);
  // The coarse level stops at x = 7, inside the 16^3 domain.
  coarse.add_patch(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 16, 16), 0));
  GridLevel fine(1, 1, 1);
  fine.add_patch(Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  FluxRegister reg(coarse, fine,
                   Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0),
                   1);
  // The shadow [4,7]^3 ends at the coarse level's edge: its high-x
  // neighbours (x = 8) lie in no coarse patch, so 5 sides x 16 faces.
  EXPECT_EQ(reg.num_faces(), 5u * 16u);
}

/// One coarse step of the register around the interior fine box of
/// CountsBoundaryFacesOfAnInteriorBox: every coarse face carries flux
/// `coarse_flux` for dt 1, every fine face `fine_flux` over two subcycles
/// of dt 1/2; returns the coarse level after apply (data zero before).
GridLevel reflux_interior_box(real_t coarse_flux, real_t fine_flux) {
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0);
  GridLevel coarse(0, 1, 1);
  coarse.add_patch(domain);
  GridLevel fine(1, 1, 1);
  fine.add_patch(Box::from_extent(IntVec(8, 8, 8), IntVec(8, 8, 8), 1));
  FluxRegister reg(coarse, fine, domain, 1);
  std::vector<FaceFluxes> cf{FaceFluxes(coarse.patch(0).box(), 1)};
  std::vector<FaceFluxes> ff{FaceFluxes(fine.patch(0).box(), 1)};
  for (int d = 0; d < kDim; ++d) {
    cf[0].flux(d).fill(coarse_flux);
    ff[0].flux(d).fill(fine_flux);
  }
  reg.add_coarse(cf, 1.0);
  reg.add_fine(ff, 0.5);
  reg.add_fine(ff, 0.5);
  reg.apply(coarse, 1.0);
  return coarse;
}

TEST(FluxRegister, MatchingFluxesLeaveCoarseDataUnchanged) {
  // kRefinementRatio^2 fine faces per coarse face, each weighted by
  // 1/kRefinementRatio^2, over subcycles summing to the coarse dt: equal
  // fluxes cancel exactly.
  const GridLevel coarse = reflux_interior_box(1.0, 1.0);
  for (const real_t v : coarse.patch(0).data().raw()) EXPECT_EQ(v, 0.0);
}

TEST(FluxRegister, FineFluxExcessCorrectsTheOutsideCells) {
  // Fine flux 2 against coarse flux 1: each face's mismatch is +1 (time
  // and area averaged), added to the high-side outside cell and taken from
  // the low-side one.
  const GridLevel coarse = reflux_interior_box(1.0, 2.0);
  const GridFunction& u = coarse.patch(0).data();
  EXPECT_EQ(u(0, 3, 5, 5), -1.0);  // low x
  EXPECT_EQ(u(0, 8, 5, 5), 1.0);   // high x
  EXPECT_EQ(u(0, 6, 3, 4), -1.0);  // low y
  EXPECT_EQ(u(0, 4, 8, 7), 1.0);   // high y
  EXPECT_EQ(u(0, 5, 6, 3), -1.0);  // low z
  EXPECT_EQ(u(0, 7, 4, 8), 1.0);   // high z
  EXPECT_EQ(u(0, 5, 5, 5), 0.0);   // under the fine box
  EXPECT_EQ(u(0, 3, 3, 5), 0.0);   // diagonal to the shadow: no face
  real_t sum = 0, touched = 0;
  const Box& b = coarse.patch(0).box();
  for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
    for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
      for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
        sum += u(0, i, j, k);
        touched += std::abs(u(0, i, j, k));
      }
  EXPECT_EQ(sum, 0.0);
  EXPECT_EQ(touched, 6.0 * 16.0);
}

// ---- conservation ----------------------------------------------------------

/// Composite mass of component `comp`: fine cells where refined, coarse
/// cells elsewhere.
real_t composite_mass(const GridHierarchy& h, real_t dx0, int comp) {
  const coord_t r = kRefinementRatio;
  real_t mass = 0;
  // Fine level contribution.
  std::vector<Box> shadow;
  if (h.num_levels() > 1) {
    const real_t dxf = dx0 / static_cast<real_t>(r);
    const real_t vol_f = dxf * dxf * dxf;
    for (const Patch& p : h.level(1).patches()) {
      shadow.push_back(p.box().coarsened());
      const Box& b = p.box();
      for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
        for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
          for (coord_t i = b.lo().x; i <= b.hi().x; ++i)
            mass += p.data()(comp, i, j, k) * vol_f;
    }
  }
  const real_t vol_c = dx0 * dx0 * dx0;
  for (const Patch& p : h.level(0).patches()) {
    const Box& b = p.box();
    for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
      for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
        for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
          bool covered = false;
          for (const Box& s : shadow)
            if (s.contains(IntVec(i, j, k))) {
              covered = true;
              break;
            }
          if (!covered) mass += p.data()(comp, i, j, k) * vol_c;
        }
  }
  return mass;
}

/// Two-level periodic advection hierarchy with a fixed fine patch.
struct AdvectionSetup {
  HierarchyConfig hc;
  IntegratorConfig ic;
  AdvectionOperator op{1.0, 0.5, 0.25, 0.5, 0.5, 0.5, 0.15};
  GradientFlagger flagger{0, 1e9};  // never regrid

  AdvectionSetup() {
    hc.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 0);
    hc.ncomp = 1;
    hc.ghost = 1;
    hc.max_levels = 2;
    hc.min_box_size = 2;
    ic.dx0 = 1.0 / 16.0;
    ic.regrid_interval = 100000;  // frozen hierarchy
    ic.bc = BoundaryKind::Periodic;
  }

  GridHierarchy make_hierarchy(bool reflux) {
    ic.reflux = reflux;
    GridHierarchy h(hc);
    BoxList l1;
    l1.push_back(Box::from_extent(IntVec(8, 8, 8), IntVec(16, 16, 16), 1));
    h.set_level_boxes(1, l1);
    for (int l = 0; l < h.num_levels(); ++l) {
      const real_t dx = ic.dx0 / std::pow(2.0, l);
      for (Patch& p : h.level(l).patches()) op.initialize(p, dx);
    }
    return h;
  }
};

TEST(Reflux, ConservesCompositeMassExactly) {
  AdvectionSetup setup;
  GridHierarchy h = setup.make_hierarchy(/*reflux=*/true);
  BergerOliger bo(h, setup.op, setup.flagger, setup.ic);
  const real_t m0 = composite_mass(h, setup.ic.dx0, 0);
  for (int s = 0; s < 10; ++s) bo.advance_step();
  const real_t m1 = composite_mass(h, setup.ic.dx0, 0);
  EXPECT_NEAR(m1, m0, std::abs(m0) * 1e-12 + 1e-14);
}

TEST(Reflux, WithoutItMassDrifts) {
  AdvectionSetup setup;
  GridHierarchy h = setup.make_hierarchy(/*reflux=*/false);
  BergerOliger bo(h, setup.op, setup.flagger, setup.ic);
  const real_t m0 = composite_mass(h, setup.ic.dx0, 0);
  for (int s = 0; s < 10; ++s) bo.advance_step();
  const real_t m1 = composite_mass(h, setup.ic.dx0, 0);
  // The coarse-fine flux mismatch leaks measurable mass.
  EXPECT_GT(std::abs(m1 - m0), std::abs(m0) * 1e-8);
}

TEST(Reflux, SingleLevelRunsAreUnaffected) {
  AdvectionSetup setup;
  setup.hc.max_levels = 1;
  setup.ic.reflux = true;
  GridHierarchy h(setup.hc);
  for (Patch& p : h.level(0).patches()) setup.op.initialize(p, setup.ic.dx0);
  BergerOliger bo(h, setup.op, setup.flagger, setup.ic);
  const real_t m0 = composite_mass(h, setup.ic.dx0, 0);
  for (int s = 0; s < 5; ++s) bo.advance_step();
  EXPECT_NEAR(composite_mass(h, setup.ic.dx0, 0), m0,
              std::abs(m0) * 1e-12);
}

TEST(Reflux, EulerConservesMassMomentumEnergy) {
  HierarchyConfig hc;
  hc.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(16, 8, 8), 0);
  hc.ncomp = kEulerNcomp;
  hc.ghost = 1;
  hc.max_levels = 2;
  hc.min_box_size = 2;
  IntegratorConfig ic;
  ic.dx0 = 1.0 / 16.0;
  ic.regrid_interval = 100000;
  ic.bc = BoundaryKind::Periodic;
  ic.reflux = true;

  EulerOperator op(1.4, [](real_t x, real_t, real_t) {
    EulerPrimitive s;
    s.rho = 1.0 + 0.4 * std::sin(2 * 3.14159265358979 * x);
    s.u = 0.7;
    s.p = 1.0;
    return s;
  });
  GradientFlagger flagger(kRho, 1e9);
  GridHierarchy h(hc);
  BoxList l1;
  l1.push_back(Box::from_extent(IntVec(8, 4, 4), IntVec(16, 8, 8), 1));
  h.set_level_boxes(1, l1);
  for (int l = 0; l < 2; ++l) {
    const real_t dx = ic.dx0 / std::pow(2.0, l);
    for (Patch& p : h.level(l).patches()) op.initialize(p, dx);
  }
  BergerOliger bo(h, op, flagger, ic);

  real_t m0[kEulerNcomp];
  for (int c = 0; c < kEulerNcomp; ++c)
    m0[c] = composite_mass(h, ic.dx0, c);
  for (int s = 0; s < 6; ++s) bo.advance_step();
  for (int c = 0; c < kEulerNcomp; ++c) {
    const real_t m1 = composite_mass(h, ic.dx0, c);
    EXPECT_NEAR(m1, m0[c], std::abs(m0[c]) * 1e-11 + 1e-12)
        << "component " << c;
  }
}

TEST(Reflux, RefusesOperatorsWithoutFluxCapture) {
  // A dummy operator that does not support capture must throw when the
  // integrator asks for fluxes.
  class NoCaptureOp final : public PatchOperator {
   public:
    int ncomp() const override { return 1; }
    int ghost() const override { return 1; }
    void initialize(Patch& p, real_t) const override { p.data().fill(1.0); }
    real_t max_wave_speed(const Patch&) const override { return 1.0; }
    void advance(Patch& p, real_t, real_t) const override {
      p.scratch().fill(1.0);
    }
  };
  NoCaptureOp op;
  Patch p(Box::from_extent(IntVec(0, 0, 0), IntVec(2, 2, 2)), 1, 1);
  FaceFluxes ff(p.box(), 1);
  EXPECT_THROW(op.advance_capture(p, 0.1, 1.0, ff), Error);
  // And the integrator silently skips refluxing for such operators
  // (supports_flux_capture() is false), instead of crashing.
  EXPECT_FALSE(op.supports_flux_capture());
}

}  // namespace
}  // namespace ssamr
