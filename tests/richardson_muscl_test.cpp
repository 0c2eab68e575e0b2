// Tests for the MUSCL second-order reconstruction option of the Euler
// kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "solver/euler.hpp"

namespace ssamr {
namespace {

TEST(Muscl, NeedsWiderGhosts) {
  auto ic = [](real_t, real_t, real_t) {
    return EulerPrimitive{1, 0, 0, 0, 1};
  };
  EulerOperator first(1.4, ic, EulerReconstruction::FirstOrder);
  EulerOperator muscl(1.4, ic, EulerReconstruction::Muscl);
  EXPECT_EQ(first.ghost(), 1);
  EXPECT_EQ(muscl.ghost(), 2);
}

TEST(Muscl, UniformStateStaysSteady) {
  EulerOperator op(1.4,
                   [](real_t, real_t, real_t) {
                     return EulerPrimitive{1.0, 0.3, 0.1, 0.0, 2.0};
                   },
                   EulerReconstruction::Muscl);
  Patch p(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 4, 4), 0),
          kEulerNcomp, 2);
  op.initialize(p, 1.0 / 8.0);
  // Fill ghosts with the same uniform state.
  GridFunction& u = p.data();
  const Box sb = u.storage_box();
  const EulerState s = to_conserved({1.0, 0.3, 0.1, 0.0, 2.0}, 1.4);
  for (int c = 0; c < kEulerNcomp; ++c)
    for (coord_t k = sb.lo().z; k <= sb.hi().z; ++k)
      for (coord_t j = sb.lo().y; j <= sb.hi().y; ++j)
        for (coord_t i = sb.lo().x; i <= sb.hi().x; ++i)
          u(c, i, j, k) = s[c];
  op.advance(p, 0.01, 1.0 / 8.0);
  for (int c = 0; c < kEulerNcomp; ++c)
    EXPECT_NEAR(p.scratch()(c, 3, 2, 2), s[c], 1e-12);
}

TEST(Muscl, SharperThanFirstOrderOnASmoothWave) {
  // Advect a smooth density wave in 1-D (uniform velocity, constant
  // pressure); compare L1 error after identical step counts.
  auto ic = [](real_t x, real_t, real_t) {
    EulerPrimitive s;
    s.rho = 1.0 + 0.3 * std::sin(2 * 3.14159265358979 * x);
    s.u = 1.0;
    s.p = 5.0;  // high pressure: nearly incompressible transport
    return s;
  };
  const coord_t n = 32;
  const real_t dx = 1.0 / static_cast<real_t>(n);

  auto run = [&](EulerReconstruction rec) {
    EulerOperator op(1.4, ic, rec);
    const int g = op.ghost();
    Patch p(Box::from_extent(IntVec(0, 0, 0), IntVec(n, 4, 4), 0),
            kEulerNcomp, g);
    op.initialize(p, dx);
    const real_t dt = 0.2 * dx / 4.0;
    const int steps = 40;
    for (int step = 0; step < steps; ++step) {
      // Periodic ghost fill along x; clamp in y/z (solution is y/z
      // independent).
      GridFunction& u = p.data();
      const Box sb = u.storage_box();
      for (int c = 0; c < kEulerNcomp; ++c)
        for (coord_t k = sb.lo().z; k <= sb.hi().z; ++k)
          for (coord_t j = sb.lo().y; j <= sb.hi().y; ++j)
            for (coord_t i = sb.lo().x; i <= sb.hi().x; ++i) {
              if (p.box().contains(IntVec(i, j, k))) continue;
              coord_t si = (i % n + n) % n;
              coord_t sj = std::clamp<coord_t>(j, 0, 3);
              coord_t sk = std::clamp<coord_t>(k, 0, 3);
              u(c, i, j, k) = u(c, si, sj, sk);
            }
      op.advance(p, dt, dx);
      p.swap_time_levels();
    }
    // L1 density error against the exactly translated profile.
    const real_t t = dt * steps;
    real_t l1 = 0;
    for (coord_t i = 0; i < n; ++i) {
      const real_t x = (static_cast<real_t>(i) + 0.5) * dx;
      const real_t exact =
          1.0 + 0.3 * std::sin(2 * 3.14159265358979 * (x - t));
      l1 += std::abs(p.data()(kRho, i, 2, 2) - exact);
    }
    return l1 / n;
  };

  const real_t err_first = run(EulerReconstruction::FirstOrder);
  const real_t err_muscl = run(EulerReconstruction::Muscl);
  EXPECT_LT(err_muscl, err_first * 0.7);
}

TEST(Muscl, ShockTubeStillRobust) {
  // MUSCL must not blow up across a strong discontinuity (limiter check).
  EulerOperator op(1.4,
                   [](real_t x, real_t, real_t) {
                     EulerPrimitive s;
                     s.rho = x < 0.5 ? 1.0 : 0.125;
                     s.p = x < 0.5 ? 1.0 : 0.1;
                     return s;
                   },
                   EulerReconstruction::Muscl);
  const coord_t n = 32;
  const real_t dx = 1.0 / n;
  Patch p(Box::from_extent(IntVec(0, 0, 0), IntVec(n, 4, 4), 0),
          kEulerNcomp, 2);
  op.initialize(p, dx);
  for (int step = 0; step < 20; ++step) {
    GridFunction& u = p.data();
    const Box sb = u.storage_box();
    for (int c = 0; c < kEulerNcomp; ++c)
      for (coord_t k = sb.lo().z; k <= sb.hi().z; ++k)
        for (coord_t j = sb.lo().y; j <= sb.hi().y; ++j)
          for (coord_t i = sb.lo().x; i <= sb.hi().x; ++i) {
            if (p.box().contains(IntVec(i, j, k))) continue;
            u(c, i, j, k) =
                u(c, std::clamp<coord_t>(i, 0, n - 1),
                  std::clamp<coord_t>(j, 0, 3),
                  std::clamp<coord_t>(k, 0, 3));
          }
    const real_t dt = 0.2 * dx / op.max_wave_speed(p);
    op.advance(p, dt, dx);
    p.swap_time_levels();
  }
  for (coord_t i = 0; i < n; ++i) {
    const EulerPrimitive s = to_primitive(
        {p.data()(kRho, i, 2, 2), p.data()(kMomX, i, 2, 2),
         p.data()(kMomY, i, 2, 2), p.data()(kMomZ, i, 2, 2),
         p.data()(kEner, i, 2, 2)},
        1.4);
    EXPECT_GT(s.rho, 0.05);
    EXPECT_LT(s.rho, 1.5);
    EXPECT_TRUE(std::isfinite(s.p));
  }
}

}  // namespace
}  // namespace ssamr
