#pragma once
/// \file lattice.hpp
/// Seeded box lattices whose boxes touch or nearly touch, for the
/// differential tests of neighbor discovery (local views, flow
/// extractors): ghost shells of width 1–2 reach some neighbors fully, some
/// partially and some not at all.

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/box.hpp"
#include "geom/point.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ssamr::fuzz {

namespace detail {
/// `n` runs along one axis from `origin`: widths in [wmin, wmax]
/// separated by gaps of 0–3 cells.
inline std::vector<std::pair<coord_t, coord_t>> random_runs(
    Rng& rng, coord_t origin, std::int64_t n, coord_t wmin, coord_t wmax) {
  std::vector<std::pair<coord_t, coord_t>> runs;
  coord_t at = origin;
  for (std::int64_t i = 0; i < n; ++i) {
    const coord_t w = rng.uniform_int(wmin, wmax);
    runs.emplace_back(at, at + w - 1);
    at += w + rng.uniform_int(0, 3);
  }
  return runs;
}

/// `b` with each face pulled in by 0 or 1 cells.
inline Box shrunk(Rng& rng, const Box& b) {
  const IntVec lo = b.lo() + IntVec(rng.uniform_int(0, 1),
                                    rng.uniform_int(0, 1),
                                    rng.uniform_int(0, 1));
  const IntVec hi = b.hi() - IntVec(rng.uniform_int(0, 1),
                                    rng.uniform_int(0, 1),
                                    rng.uniform_int(0, 1));
  return Box(lo, hi, b.level());
}
}  // namespace detail

/// Anisotropic nested lattice whose boxes touch or nearly touch: level-0
/// boxes on a grid of elongated runs with holes, level-1 children refined
/// from their parent and trimmed, and occasional level-2 grandchildren.
/// `origin` shifts the whole family.
inline std::vector<Box> touching_lattice(Rng& rng, IntVec origin) {
  const auto xs =
      detail::random_runs(rng, origin.x, rng.uniform_int(2, 6), 2, 16);
  const auto ys =
      detail::random_runs(rng, origin.y, rng.uniform_int(1, 5), 2, 8);
  const auto zs =
      detail::random_runs(rng, origin.z, rng.uniform_int(1, 3), 2, 5);
  std::vector<Box> out;
  for (const auto& [zlo, zhi] : zs)
    for (const auto& [ylo, yhi] : ys)
      for (const auto& [xlo, xhi] : xs) {
        if (rng.uniform() < 0.2) continue;  // holes
        const Box parent(IntVec(xlo, ylo, zlo), IntVec(xhi, yhi, zhi), 0);
        out.push_back(parent);
        if (rng.uniform() < 0.5) {
          const Box child = detail::shrunk(rng, parent.refined());
          out.push_back(child);
          if (rng.uniform() < 0.3)
            out.push_back(detail::shrunk(rng, child.refined()));
        }
      }
  if (out.empty())
    out.push_back(Box::from_extent(origin, IntVec(8, 8, 8), 0));
  return out;
}

}  // namespace ssamr::fuzz
