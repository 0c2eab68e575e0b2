#include "solver/euler.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ssamr {

namespace {
constexpr real_t kRhoFloor = 1e-10;
constexpr real_t kPresFloor = 1e-10;
}  // namespace

EulerState to_conserved(const EulerPrimitive& prim, real_t gamma) {
  EulerState c;
  c[kRho] = prim.rho;
  c[kMomX] = prim.rho * prim.u;
  c[kMomY] = prim.rho * prim.v;
  c[kMomZ] = prim.rho * prim.w;
  const real_t kinetic =
      0.5 * prim.rho *
      (prim.u * prim.u + prim.v * prim.v + prim.w * prim.w);
  c[kEner] = prim.p / (gamma - 1) + kinetic;
  return c;
}

EulerPrimitive to_primitive(const EulerState& cons, real_t gamma) {
  EulerPrimitive p;
  p.rho = std::max(cons[kRho], kRhoFloor);
  p.u = cons[kMomX] / p.rho;
  p.v = cons[kMomY] / p.rho;
  p.w = cons[kMomZ] / p.rho;
  const real_t kinetic = 0.5 * p.rho * (p.u * p.u + p.v * p.v + p.w * p.w);
  p.p = std::max((gamma - 1) * (cons[kEner] - kinetic), kPresFloor);
  return p;
}

real_t sound_speed(const EulerPrimitive& prim, real_t gamma) {
  return std::sqrt(gamma * prim.p / std::max(prim.rho, kRhoFloor));
}

EulerState euler_flux(const EulerState& cons, int axis, real_t gamma) {
  SSAMR_ASSERT(axis >= 0 && axis < 3, "axis out of range");
  const EulerPrimitive p = to_primitive(cons, gamma);
  const real_t vel = axis == 0 ? p.u : (axis == 1 ? p.v : p.w);
  EulerState f;
  f[kRho] = cons[kRho] * vel;
  f[kMomX] = cons[kMomX] * vel;
  f[kMomY] = cons[kMomY] * vel;
  f[kMomZ] = cons[kMomZ] * vel;
  f[kMomX + axis] += p.p;
  f[kEner] = (cons[kEner] + p.p) * vel;
  return f;
}

EulerState rusanov_flux(const EulerState& left, const EulerState& right,
                        int axis, real_t gamma) {
  const EulerPrimitive pl = to_primitive(left, gamma);
  const EulerPrimitive pr = to_primitive(right, gamma);
  const real_t vl = axis == 0 ? pl.u : (axis == 1 ? pl.v : pl.w);
  const real_t vr = axis == 0 ? pr.u : (axis == 1 ? pr.v : pr.w);
  const real_t smax = std::max(std::abs(vl) + sound_speed(pl, gamma),
                               std::abs(vr) + sound_speed(pr, gamma));
  const EulerState fl = euler_flux(left, axis, gamma);
  const EulerState fr = euler_flux(right, axis, gamma);
  EulerState f;
  for (int c = 0; c < kEulerNcomp; ++c)
    f[c] = 0.5 * (fl[c] + fr[c]) - 0.5 * smax * (right[c] - left[c]);
  return f;
}

EulerOperator::EulerOperator(real_t gamma, EulerInitialCondition ic)
    : gamma_(gamma), ic_(std::move(ic)) {
  SSAMR_REQUIRE(gamma > 1, "gamma must exceed 1");
  SSAMR_REQUIRE(static_cast<bool>(ic_), "initial condition required");
}

EulerState EulerOperator::state_at(const GridFunction& u, coord_t i,
                                   coord_t j, coord_t k) const {
  EulerState s;
  for (int c = 0; c < kEulerNcomp; ++c) s[c] = u(c, i, j, k);
  return s;
}

void EulerOperator::initialize(Patch& p, real_t dx) const {
  GridFunction& u = p.data();
  const Box& b = p.box();
  for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
    for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
      for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
        const EulerState s =
            to_conserved(ic_((static_cast<real_t>(i) + 0.5) * dx,
                             (static_cast<real_t>(j) + 0.5) * dx,
                             (static_cast<real_t>(k) + 0.5) * dx),
                         gamma_);
        for (int c = 0; c < kEulerNcomp; ++c) u(c, i, j, k) = s[c];
      }
}

real_t EulerOperator::max_wave_speed(const Patch& p) const {
  const GridFunction& u = p.data();
  const Box& b = p.box();
  real_t smax = 0;
  for (coord_t k = b.lo().z; k <= b.hi().z; ++k)
    for (coord_t j = b.lo().y; j <= b.hi().y; ++j)
      for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
        const EulerPrimitive prim =
            to_primitive(state_at(u, i, j, k), gamma_);
        const real_t vmax = std::max(
            {std::abs(prim.u), std::abs(prim.v), std::abs(prim.w)});
        smax = std::max(smax, vmax + sound_speed(prim, gamma_));
      }
  return smax;
}

EulerState EulerOperator::face_flux(const GridFunction& u, IntVec cell,
                                    int axis) const {
  IntVec step(0, 0, 0);
  step.at(axis) = 1;
  const IntVec n = cell + step;
  return rusanov_flux(state_at(u, cell.x, cell.y, cell.z),
                      state_at(u, n.x, n.y, n.z), axis, gamma_);
}

void EulerOperator::advance_impl(Patch& p, real_t dt, real_t dx,
                                 FaceFluxes* fluxes) const {
  const GridFunction& u = p.data();
  GridFunction& un = p.scratch();
  const Box& b = p.box();
  const real_t lambda = dt / dx;
  for (coord_t k = b.lo().z; k <= b.hi().z; ++k) {
    for (coord_t j = b.lo().y; j <= b.hi().y; ++j) {
      for (coord_t i = b.lo().x; i <= b.hi().x; ++i) {
        const IntVec cell(i, j, k);
        const EulerState c = state_at(u, i, j, k);
        // face_flux(u, cell, axis) is the flux between `cell` and its
        // +axis neighbour, i.e. the LOW face of cell + e_axis.
        const EulerState fxl = face_flux(u, IntVec(i - 1, j, k), 0);
        const EulerState fxr = face_flux(u, cell, 0);
        const EulerState fyl = face_flux(u, IntVec(i, j - 1, k), 1);
        const EulerState fyr = face_flux(u, cell, 1);
        const EulerState fzl = face_flux(u, IntVec(i, j, k - 1), 2);
        const EulerState fzr = face_flux(u, cell, 2);
        for (int comp = 0; comp < kEulerNcomp; ++comp) {
          un(comp, i, j, k) =
              c[comp] - lambda * ((fxr[comp] - fxl[comp]) +
                                  (fyr[comp] - fyl[comp]) +
                                  (fzr[comp] - fzl[comp]));
        }
        if (fluxes != nullptr) {
          for (int comp = 0; comp < kEulerNcomp; ++comp) {
            fluxes->flux(0)(comp, i, j, k) = fxl[comp];
            fluxes->flux(0)(comp, i + 1, j, k) = fxr[comp];
            fluxes->flux(1)(comp, i, j, k) = fyl[comp];
            fluxes->flux(1)(comp, i, j + 1, k) = fyr[comp];
            fluxes->flux(2)(comp, i, j, k) = fzl[comp];
            fluxes->flux(2)(comp, i, j, k + 1) = fzr[comp];
          }
        }
      }
    }
  }
}

void EulerOperator::advance(Patch& p, real_t dt, real_t dx) const {
  advance_impl(p, dt, dx, nullptr);
}

void EulerOperator::advance_capture(Patch& p, real_t dt, real_t dx,
                                    FaceFluxes& fluxes) const {
  advance_impl(p, dt, dx, &fluxes);
}

}  // namespace ssamr
