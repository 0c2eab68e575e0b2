#include "amr/ghost.hpp"

#include <algorithm>
#include <cstdint>

#include "sfc/key_index.hpp"
#include "util/error.hpp"

namespace ssamr {

namespace {
/// Offsets that wrap a region across a periodic domain: for each direction,
/// shift by -extent, 0, +extent.  Identity offset excluded by caller.
std::vector<IntVec> periodic_shifts(const Box& domain) {
  const IntVec e = domain.extent();
  std::vector<IntVec> shifts;
  for (coord_t sz = -1; sz <= 1; ++sz)
    for (coord_t sy = -1; sy <= 1; ++sy)
      for (coord_t sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0 && sz == 0) continue;
        shifts.emplace_back(sx * e.x, sy * e.y, sz * e.z);
      }
  return shifts;
}
}  // namespace

GhostPlan::GhostPlan(const GridLevel& lvl, const Box& domain, BoundaryKind bc)
    : domain_(domain), bc_(bc), ncomp_(lvl.ncomp()) {
  const auto& patches = lvl.patches();
  const int g = lvl.ghost();
  // Interior neighbors come from the key index, not an all-pairs scan.
  // Query results come back in ascending id order, so the op order —
  // (dst-major, src-minor) — is the historical scan's and the plan stays
  // deterministic.  The periodic image pass keeps the direct scan: shifted
  // source frames fall outside the indexed domain, and boundary patch
  // counts don't grow with the interior.
  std::vector<Box> patch_boxes;
  patch_boxes.reserve(patches.size());
  for (const auto& p : patches) patch_boxes.push_back(p.box());
  const SfcKeyIndex index(patch_boxes);
  std::vector<std::uint32_t> candidates;
  for (std::size_t d = 0; d < patches.size(); ++d) {
    const Box dst_ghost = patches[d].box().grown(g);
    index.query(dst_ghost, candidates);
    for (const std::uint32_t c : candidates) {
      const auto s = static_cast<std::size_t>(c);
      if (s == d) continue;
      ops_.push_back({s, d, dst_ghost.intersection(patches[s].box())});
    }
    if (bc_ == BoundaryKind::Periodic) {
      // Ghost cells beyond the domain are images of patches shifted by the
      // domain extent; record a CopyOp whose region is in the *destination*
      // frame (outside the domain) — exchange() translates for the source.
      for (const IntVec& shift : periodic_shifts(domain_)) {
        for (std::size_t s = 0; s < patches.size(); ++s) {
          const Box shifted_src = patches[s].box().shifted(shift);
          const Box overlap = dst_ghost.intersection(shifted_src);
          if (!overlap.empty() && !domain_.contains(overlap))
            ops_.push_back({s, d, overlap});
        }
      }
    }
  }
}

void GhostPlan::exchange(GridLevel& lvl) const {
  auto& patches = lvl.patches();
  for (const CopyOp& op : ops_) {
    GridFunction& dst = patches[op.dst].data();
    const GridFunction& src = patches[op.src].data();
    // Direct copy only when the region lies in the source's *interior*
    // (valid cells); a region inside its ghost storage must be a periodic
    // image and take the wrapped path below.
    if (patches[op.src].box().contains(op.region)) {
      dst.copy_from(src, op.region);
    } else {
      // Periodic image: translate the region into the source frame.
      const IntVec e = domain_.extent();
      for (coord_t sz = -1; sz <= 1; ++sz)
        for (coord_t sy = -1; sy <= 1; ++sy)
          for (coord_t sx = -1; sx <= 1; ++sx) {
            if (sx == 0 && sy == 0 && sz == 0) continue;
            const IntVec shift(sx * e.x, sy * e.y, sz * e.z);
            const Box src_region = op.region.shifted(shift * -1);
            if (patches[op.src].box().contains(src_region)) {
              for (int c = 0; c < ncomp_; ++c)
                for (coord_t k = op.region.lo().z; k <= op.region.hi().z;
                     ++k)
                  for (coord_t j = op.region.lo().y;
                       j <= op.region.hi().y; ++j)
                    for (coord_t i = op.region.lo().x;
                         i <= op.region.hi().x; ++i)
                      dst(c, i, j, k) =
                          src(c, i - shift.x, j - shift.y, k - shift.z);
              goto next_op;
            }
          }
      SSAMR_ASSERT(false, "periodic copy source not found");
    next_op:;
    }
  }
}

void GhostPlan::fill_physical(GridLevel& lvl) const {
  if (bc_ != BoundaryKind::Outflow) return;
  for (Patch& p : lvl.patches()) {
    GridFunction& u = p.data();
    const Box sb = u.storage_box();
    const Box db = domain_;
    // Clamp-extrapolate every storage cell outside the domain to the
    // nearest domain cell (zero-gradient outflow).
    for (int c = 0; c < u.ncomp(); ++c)
      for (coord_t k = sb.lo().z; k <= sb.hi().z; ++k)
        for (coord_t j = sb.lo().y; j <= sb.hi().y; ++j)
          for (coord_t i = sb.lo().x; i <= sb.hi().x; ++i) {
            if (db.contains(IntVec(i, j, k))) continue;
            const coord_t ci = std::clamp(i, db.lo().x, db.hi().x);
            const coord_t cj = std::clamp(j, db.lo().y, db.hi().y);
            const coord_t ck = std::clamp(k, db.lo().z, db.hi().z);
            if (u.storage_box().contains(IntVec(ci, cj, ck)) &&
                p.box().contains(IntVec(ci, cj, ck)))
              u(c, i, j, k) = u(c, ci, cj, ck);
          }
  }
}

std::int64_t GhostPlan::remote_bytes(const GridLevel& lvl) const {
  std::int64_t total = 0;
  const auto& patches = lvl.patches();
  for (const CopyOp& op : ops_) {
    if (patches[op.src].owner() != patches[op.dst].owner())
      total += op.region.cells() * ncomp_ *
               static_cast<std::int64_t>(sizeof(real_t));
  }
  return total;
}

std::int64_t GhostPlan::remote_bytes_touching(const GridLevel& lvl,
                                              rank_t rank) const {
  std::int64_t total = 0;
  const auto& patches = lvl.patches();
  for (const CopyOp& op : ops_) {
    const rank_t so = patches[op.src].owner();
    const rank_t dok = patches[op.dst].owner();
    if (so != dok && (so == rank || dok == rank))
      total += op.region.cells() * ncomp_ *
               static_cast<std::int64_t>(sizeof(real_t));
  }
  return total;
}

}  // namespace ssamr
