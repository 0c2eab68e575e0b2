#include "amr/hierarchy_audit.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "amr/level.hpp"
#include "amr/patch.hpp"
#include "geom/box.hpp"
#include "geom/box_list.hpp"
#include "geom/point.hpp"

namespace ssamr::audit {

namespace {

std::string str(const Box& b) {
  std::ostringstream os;
  os << b;
  return os.str();
}

std::string level_loc(int l) { return "level " + std::to_string(l); }

}  // namespace

AuditReport validate_hierarchy(const GridHierarchy& h) {
  AuditReport r("hierarchy");
  const HierarchyConfig& cfg = h.config();

  // Level 0 must be exactly the domain.
  {
    const BoxList base = h.level(0).box_list();
    for (const Box& b : base)
      if (!cfg.domain.contains(b))
        r.add(Severity::Error, "hierarchy.bounds", level_loc(0),
              "box " + str(b) + " leaves the domain " + str(cfg.domain));
    if (base.empty() || !base.covers(cfg.domain))
      r.add(Severity::Error, "hierarchy.level0", level_loc(0),
            "level 0 does not cover the domain " + str(cfg.domain));
  }

  for (int l = 0; l < h.num_levels(); ++l) {
    const GridLevel& lvl = h.level(l);
    if (lvl.level() != l)
      r.add(Severity::Error, "hierarchy.level_index", level_loc(l),
            "GridLevel carries level " + std::to_string(lvl.level()));
    if (lvl.ncomp() != cfg.ncomp || lvl.ghost() != cfg.ghost)
      r.add(Severity::Error, "hierarchy.ghost_config", level_loc(l),
            "level has ncomp=" + std::to_string(lvl.ncomp()) + " ghost=" +
                std::to_string(lvl.ghost()) + ", config says ncomp=" +
                std::to_string(cfg.ncomp) + " ghost=" +
                std::to_string(cfg.ghost));

    const Box dom = h.domain_at(l);
    const BoxList boxes = lvl.box_list();
    for (const Box& b : boxes) {
      if (b.level() != l)
        r.add(Severity::Error, "hierarchy.box_level", level_loc(l),
              "box " + str(b) + " carries level " +
                  std::to_string(b.level()));
      if (l > 0 && !dom.contains(b))
        r.add(Severity::Error, "hierarchy.bounds", level_loc(l),
              "box " + str(b) + " leaves the domain " + str(dom));
      if (l >= 1) {
        // Refined patches come from coarse-cell clusters mapped down by the
        // refinement ratio, so their faces must lie on coarse-cell
        // boundaries.
        const IntVec lo = b.lo(), hi = b.hi();
        bool aligned = true;
        for (int d = 0; d < kDim; ++d)
          aligned = aligned && lo[d] % kRefinementRatio == 0 &&
                    (hi[d] + 1) % kRefinementRatio == 0;
        if (!aligned)
          r.add(Severity::Warning, "hierarchy.alignment", level_loc(l),
                "box " + str(b) + " is not aligned to the refinement ratio " +
                    std::to_string(kRefinementRatio));
        const IntVec ext = b.extent();
        if (std::min({ext.x, ext.y, ext.z}) < cfg.min_box_size)
          r.add(Severity::Warning, "hierarchy.min_box", level_loc(l),
                "box " + str(b) + " is smaller than min_box_size " +
                    std::to_string(cfg.min_box_size));
      }
    }

    // Disjointness, pairwise so the offending pair is reported.
    for (std::size_t i = 0; i < boxes.size(); ++i)
      for (std::size_t j = i + 1; j < boxes.size(); ++j)
        if (boxes[i].level() == boxes[j].level() &&
            boxes[i].intersects(boxes[j]))
          r.add(Severity::Error, "hierarchy.overlap", level_loc(l),
                "boxes " + str(boxes[i]) + " and " + str(boxes[j]) +
                    " overlap");

    if (l >= 2 && !h.properly_nested(l, boxes))
      r.add(Severity::Error, "hierarchy.nesting", level_loc(l),
            "level is not properly nested in level " + std::to_string(l - 1));

    // Ghost-region/storage consistency of the patch data.
    for (std::size_t p = 0; p < lvl.num_patches(); ++p) {
      const Patch& patch = lvl.patch(p);
      const std::string loc =
          level_loc(l) + " patch " + std::to_string(p) + " " +
          str(patch.box());
      for (const GridFunction* gf : {&patch.data(), &patch.scratch()}) {
        if (!gf->allocated()) {
          r.add(Severity::Error, "hierarchy.ghost", loc,
                "patch field data is unallocated");
          continue;
        }
        if (gf->box() != patch.box() ||
            gf->storage_box() != patch.box().grown(gf->ghost()))
          r.add(Severity::Error, "hierarchy.ghost", loc,
                "field storage does not match the patch box grown by the "
                "ghost width");
        if (gf->ncomp() != cfg.ncomp || gf->ghost() != cfg.ghost)
          r.add(Severity::Error, "hierarchy.ghost", loc,
                "field has ncomp=" + std::to_string(gf->ncomp()) +
                    " ghost=" + std::to_string(gf->ghost()) +
                    ", config says ncomp=" + std::to_string(cfg.ncomp) +
                    " ghost=" + std::to_string(cfg.ghost));
      }
    }
  }
  return r;
}

}  // namespace ssamr::audit
