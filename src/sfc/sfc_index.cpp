#include "sfc/sfc_index.hpp"

#include <algorithm>
#include <numeric>

#include "sfc/hilbert.hpp"
#include "sfc/morton.hpp"
#include "util/error.hpp"

namespace ssamr {

key_t sfc_box_key(const Box& b, const SfcConfig& cfg) {
  SSAMR_REQUIRE(!b.empty(), "cannot key an empty box");
  SSAMR_REQUIRE(b.level() <= cfg.finest_level,
                "box level exceeds configured finest level");
  // Centroid of the box, in units of half-cells of the box's own level, then
  // scaled to the finest index space (also in half-cells, so rounding cannot
  // collapse distinct centroids).
  const coord_t scale = refinement_scale(cfg.finest_level - b.level());
  const IntVec c2 = b.lo() + b.hi() + IntVec::splat(1);  // 2 * centroid
  IntVec p(c2.x * scale / 2, c2.y * scale / 2, c2.z * scale / 2);
  if (cfg.curve == CurveKind::Morton) return morton_encode(p);
  return hilbert_encode(p, cfg.bits);
}

std::vector<std::size_t> sfc_order(const std::vector<Box>& boxes,
                                   const SfcConfig& cfg) {
  std::vector<key_t> keys(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    keys[i] = sfc_box_key(boxes[i], cfg);
  std::vector<std::size_t> perm(boxes.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (keys[a] != keys[b]) return keys[a] < keys[b];
                     return boxes[a].level() < boxes[b].level();
                   });
  return perm;
}

}  // namespace ssamr
