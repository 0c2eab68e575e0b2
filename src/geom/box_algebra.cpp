#include "geom/box_algebra.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ssamr {

std::vector<Box> box_difference(const Box& a, const Box& b) {
  if (a.empty()) return {};
  const Box overlap = a.intersection(b);
  if (overlap.empty()) return {a};
  if (overlap == a) return {};

  // Carve a into slabs around the overlap, axis by axis.
  std::vector<Box> out;
  Box core = a;  // region still to be carved; shrinks toward the overlap
  for (int d = 0; d < kDim; ++d) {
    if (overlap.lo()[d] > core.lo()[d]) {
      IntVec hi = core.hi();
      hi.at(d) = overlap.lo()[d] - 1;
      out.emplace_back(core.lo(), hi, a.level());
      IntVec lo = core.lo();
      lo.at(d) = overlap.lo()[d];
      core = Box(lo, core.hi(), a.level());
    }
    if (overlap.hi()[d] < core.hi()[d]) {
      IntVec lo = core.lo();
      lo.at(d) = overlap.hi()[d] + 1;
      out.emplace_back(lo, core.hi(), a.level());
      IntVec hi = core.hi();
      hi.at(d) = overlap.hi()[d];
      core = Box(core.lo(), hi, a.level());
    }
  }
  SSAMR_ASSERT(core == overlap, "difference carving must end at the overlap");
  return out;
}

std::vector<Box> box_difference(const Box& a,
                                const std::vector<Box>& subtrahends) {
  std::vector<Box> remaining{a};
  if (a.empty()) return {};
  for (const Box& s : subtrahends) {
    std::vector<Box> next;
    next.reserve(remaining.size());
    for (const Box& r : remaining) {
      auto diff = box_difference(r, s);
      next.insert(next.end(), diff.begin(), diff.end());
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
  return remaining;
}

namespace {
/// True when a and b can merge into one box (equal bounds in all directions
/// except one, where they are exactly adjacent).
bool mergeable(const Box& a, const Box& b, Box& merged) {
  if (a.level() != b.level()) return false;
  int diff_axis = -1;
  for (int d = 0; d < kDim; ++d) {
    if (a.lo()[d] == b.lo()[d] && a.hi()[d] == b.hi()[d]) continue;
    if (diff_axis >= 0) return false;
    diff_axis = d;
  }
  if (diff_axis < 0) return false;  // identical boxes — caller's bug
  const int d = diff_axis;
  if (a.hi()[d] + 1 == b.lo()[d] || b.hi()[d] + 1 == a.lo()[d]) {
    merged = bounding_union(a, b);
    return true;
  }
  return false;
}
}  // namespace

std::vector<Box> coalesce(std::vector<Box> boxes) {
  // Merges happen in the order of a scan that restarts from pair (0, 1)
  // after every merge: each merge takes the first mergeable pair (i, j) in
  // row-major order.  A merge only changes box i, so the only pairs that
  // can have become mergeable involve box i; rather than rescanning,
  // first pull box i into the smallest earlier index that accepts it
  // (repeating while one does), then resume the scan right after it.
  const auto erase_at = [&boxes](std::size_t k) {
    boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(k));
  };
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      Box merged;
      if (!mergeable(boxes[i], boxes[j], merged)) continue;
      boxes[i] = merged;
      erase_at(j);
      for (std::size_t a = 0; a < i;) {
        if (mergeable(boxes[a], boxes[i], merged)) {
          boxes[a] = merged;
          erase_at(i);
          i = a;
          a = 0;
        } else {
          ++a;
        }
      }
      j = i;  // resume at (i, i + 1)
    }
  }
  return boxes;
}

std::vector<Box> clip_and_coalesce(const std::vector<Box>& boxes,
                                   const std::vector<Box>& region) {
  std::vector<Box> pieces;
  for (const Box& b : boxes)
    for (const Box& r : region) {
      const Box piece = b.intersection(r);
      if (!piece.empty()) pieces.push_back(piece);
    }
  return coalesce(std::move(pieces));
}

}  // namespace ssamr
