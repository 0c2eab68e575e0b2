#include "geom/box_list.hpp"

#include "geom/box_algebra.hpp"

namespace ssamr {

std::int64_t BoxList::total_cells() const {
  std::int64_t n = 0;
  for (const Box& b : boxes_) n += b.cells();
  return n;
}

bool BoxList::has_overlap() const {
  for (std::size_t i = 0; i < boxes_.size(); ++i)
    for (std::size_t j = i + 1; j < boxes_.size(); ++j)
      if (boxes_[i].level() == boxes_[j].level() &&
          boxes_[i].intersects(boxes_[j]))
        return true;
  return false;
}

bool BoxList::covers(const Box& probe) const {
  if (probe.empty()) return true;
  std::vector<Box> remaining{probe};
  for (const Box& b : boxes_) {
    std::vector<Box> next;
    for (const Box& r : remaining) {
      auto diff = box_difference(r, b);
      next.insert(next.end(), diff.begin(), diff.end());
    }
    remaining = std::move(next);
    if (remaining.empty()) return true;
  }
  return remaining.empty();
}

}  // namespace ssamr
