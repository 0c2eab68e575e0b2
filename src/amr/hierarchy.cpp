#include "amr/hierarchy.hpp"

#include "amr/hierarchy_audit.hpp"
#include "util/audit.hpp"
#include "geom/box_algebra.hpp"
#include "util/error.hpp"

namespace ssamr {

GridHierarchy::GridHierarchy(const HierarchyConfig& cfg) : cfg_(cfg) {
  SSAMR_REQUIRE(!cfg.domain.empty(), "hierarchy needs a non-empty domain");
  SSAMR_REQUIRE(cfg.domain.level() == 0, "domain box must be at level 0");
  SSAMR_REQUIRE(cfg.max_levels >= 1, "need at least one level");
  SSAMR_REQUIRE(cfg.min_box_size >= 1, "min box size must be >= 1");
  levels_.emplace_back(0, cfg.ncomp, cfg.ghost);
  levels_[0].add_patch(cfg.domain);
}

Box GridHierarchy::domain_at(level_t l) const {
  SSAMR_REQUIRE(l >= 0 && l < cfg_.max_levels, "level out of range");
  if (l == 0) return cfg_.domain;
  return cfg_.domain.refined_by(l);
}

void GridHierarchy::set_level_boxes(level_t l, const BoxList& boxes) {
  SSAMR_REQUIRE(l >= 1 && l < cfg_.max_levels,
                "can only regrid levels 1..max_levels-1");
  SSAMR_REQUIRE(l <= num_levels(),
                "cannot create a level with no parent level");
  const Box dom = domain_at(l);
  for (const Box& b : boxes) {
    SSAMR_REQUIRE(b.level() == l, "box level mismatch in set_level_boxes");
    SSAMR_REQUIRE(dom.contains(b), "box outside domain");
  }
  SSAMR_REQUIRE(!boxes.has_overlap(), "level boxes must be disjoint");
  if (l >= 2)
    SSAMR_REQUIRE(properly_nested(l, boxes),
                  "level boxes must be properly nested in the parent level");

  if (l == num_levels())
    levels_.emplace_back(l, cfg_.ncomp, cfg_.ghost);
  GridLevel& lvl = levels_[static_cast<std::size_t>(l)];
  lvl.clear();
  for (const Box& b : boxes) lvl.add_patch(b);

  // An empty level truncates everything below it.
  if (boxes.empty()) {
    levels_.resize(static_cast<std::size_t>(l));
    return;
  }
  // Deeper levels must remain nested; drop any now-orphaned boxes.
  for (int deeper = l + 1; deeper < num_levels(); ++deeper) {
    BoxList kept;
    for (const Box& b :
         levels_[static_cast<std::size_t>(deeper)].box_list()) {
      if (properly_nested(deeper, BoxList({std::vector<Box>{b}})))
        kept.push_back(b);
    }
    GridLevel& dl = levels_[static_cast<std::size_t>(deeper)];
    if (kept.size() != dl.num_patches()) {
      dl.clear();
      for (const Box& b : kept) dl.add_patch(b);
    }
    if (dl.num_patches() == 0) {
      levels_.resize(static_cast<std::size_t>(deeper));
      break;
    }
  }

  // Re-audit the whole structure after the mutation: nesting, disjointness
  // and ghost-storage consistency across every surviving level.
  SSAMR_AUDIT(audit::validate_hierarchy(*this));
}

BoxList GridHierarchy::composite_box_list() const {
  BoxList out;
  for (const GridLevel& lvl : levels_) out.append(lvl.box_list());
  return out;
}

std::int64_t GridHierarchy::total_cells() const {
  std::int64_t n = 0;
  for (const GridLevel& lvl : levels_) n += lvl.total_cells();
  return n;
}

bool GridHierarchy::properly_nested(level_t l, const BoxList& boxes) const {
  SSAMR_REQUIRE(l >= 1, "nesting is defined for levels >= 1");
  if (l == 1) return true;  // level 0 covers the whole domain
  if (l > num_levels()) return false;
  const BoxList parents =
      levels_[static_cast<std::size_t>(l - 1)].box_list();
  std::vector<Box> parent_boxes(parents.begin(), parents.end());
  for (const Box& b : boxes) {
    const Box coarse = b.coarsened();
    if (!box_difference(coarse, parent_boxes).empty()) return false;
  }
  return true;
}

}  // namespace ssamr
