#include "solver/richtmyer_meshkov.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ssamr {

namespace {
constexpr real_t kPi = 3.14159265358979323846;
}

EulerPrimitive rankine_hugoniot_post_shock(real_t rho0, real_t p0,
                                           real_t mach, real_t gamma) {
  SSAMR_REQUIRE(mach > 1, "shock Mach number must exceed 1");
  SSAMR_REQUIRE(rho0 > 0 && p0 > 0, "pre-shock state must be positive");
  const real_t m2 = mach * mach;
  EulerPrimitive post;
  post.p = p0 * (2 * gamma * m2 - (gamma - 1)) / (gamma + 1);
  post.rho = rho0 * ((gamma + 1) * m2) / ((gamma - 1) * m2 + 2);
  // Piston (post-shock gas) velocity in the lab frame, shock moving in +x.
  const real_t c0 = std::sqrt(gamma * p0 / rho0);
  post.u = (2 * c0 / (gamma + 1)) * (mach - 1 / mach);
  post.v = post.w = 0;
  return post;
}

EulerInitialCondition make_rm_initial_condition(
    const RichtmyerMeshkovConfig& cfg) {
  SSAMR_REQUIRE(cfg.shock_x < cfg.interface_x,
                "shock must start left of the interface");
  SSAMR_REQUIRE(cfg.density_ratio > 0, "density ratio must be positive");
  const EulerPrimitive post = rankine_hugoniot_post_shock(
      cfg.rho_light, cfg.p0, cfg.mach, cfg.gamma);
  return [cfg, post](real_t x, real_t y, real_t z) -> EulerPrimitive {
    const real_t xs = cfg.shock_x * cfg.lx;
    const real_t xi =
        cfg.interface_x * cfg.lx +
        cfg.amplitude * cfg.lx *
            (std::cos(2 * kPi * cfg.waves_y * y / cfg.ly) +
             0.5 * std::cos(2 * kPi * cfg.waves_z * z / cfg.lz));
    if (x < xs) return post;  // post-shock light gas
    EulerPrimitive pre;
    pre.p = cfg.p0;
    pre.u = pre.v = pre.w = 0;
    pre.rho = x < xi ? cfg.rho_light : cfg.rho_light * cfg.density_ratio;
    return pre;
  };
}

EulerOperator make_rm_operator(const RichtmyerMeshkovConfig& cfg) {
  return EulerOperator(cfg.gamma, make_rm_initial_condition(cfg));
}

}  // namespace ssamr
