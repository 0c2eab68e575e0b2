#include "geom/box.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace ssamr {

std::ostream& operator<<(std::ostream& os, IntVec v) {
  return os << '(' << v.x << ',' << v.y << ',' << v.z << ')';
}

Box::Box() : lo_(IntVec::splat(0)), hi_(IntVec::splat(-1)), level_(0) {}

Box::Box(IntVec lo, IntVec hi, level_t level)
    : lo_(lo), hi_(hi), level_(level) {
  SSAMR_REQUIRE(level >= 0, "refinement level must be non-negative");
}

Box Box::from_extent(IntVec lo, IntVec extent, level_t level) {
  return Box(lo, lo + extent - IntVec::splat(1), level);
}

bool Box::empty() const {
  return hi_.x < lo_.x || hi_.y < lo_.y || hi_.z < lo_.z;
}

IntVec Box::extent() const {
  if (empty()) return IntVec::splat(0);
  return hi_ - lo_ + IntVec::splat(1);
}

std::int64_t Box::cells() const { return extent().product(); }

bool Box::contains(IntVec p) const { return p.all_ge(lo_) && p.all_le(hi_); }

bool Box::contains(const Box& other) const {
  if (other.empty()) return true;
  SSAMR_REQUIRE(level_ == other.level_, "level mismatch in Box::contains");
  return other.lo_.all_ge(lo_) && other.hi_.all_le(hi_);
}

bool Box::intersects(const Box& other) const {
  return !intersection(other).empty();
}

Box Box::intersection(const Box& other) const {
  if (empty() || other.empty()) return Box();
  SSAMR_REQUIRE(level_ == other.level_,
                "level mismatch in Box::intersection");
  return Box(max(lo_, other.lo_), min(hi_, other.hi_), level_);
}

Box Box::grown(coord_t n) const {
  if (empty()) return *this;
  return Box(lo_ - IntVec::splat(n), hi_ + IntVec::splat(n), level_);
}

Box Box::shifted(IntVec offset) const {
  if (empty()) return *this;
  return Box(lo_ + offset, hi_ + offset, level_);
}

Box Box::refined_by(int levels) const {
  SSAMR_REQUIRE(levels >= 1, "levels must be >= 1");
  if (empty()) return Box(lo_, hi_, level_ + levels);
  const coord_t r = refinement_scale(levels);
  return Box(lo_ * r, (hi_ + IntVec::splat(1)) * r - IntVec::splat(1),
             level_ + levels);
}

Box Box::coarsened() const {
  SSAMR_REQUIRE(level_ >= 1, "cannot coarsen a level-0 box");
  if (empty()) return Box(lo_, hi_, level_ - 1);
  return Box(coarse_cell(lo_), coarse_cell(hi_), level_ - 1);
}

int Box::longest_axis() const {
  const IntVec e = extent();
  int axis = 0;
  for (int d = 1; d < kDim; ++d)
    if (e[d] > e[axis]) axis = d;
  return axis;
}

int Box::shortest_axis() const {
  const IntVec e = extent();
  int axis = 0;
  for (int d = 1; d < kDim; ++d)
    if (e[d] < e[axis]) axis = d;
  return axis;
}

real_t Box::aspect_ratio() const {
  if (empty()) return 0;
  const IntVec e = extent();
  return static_cast<real_t>(e[longest_axis()]) /
         static_cast<real_t>(e[shortest_axis()]);
}

std::pair<Box, Box> Box::split(int axis, coord_t offset) const {
  SSAMR_REQUIRE(axis >= 0 && axis < kDim, "split axis out of range");
  SSAMR_REQUIRE(offset > 0 && offset < extent()[axis],
                "split offset must fall strictly inside the box");
  IntVec left_hi = hi_;
  left_hi.at(axis) = lo_[axis] + offset - 1;
  IntVec right_lo = lo_;
  right_lo.at(axis) = lo_[axis] + offset;
  return {Box(lo_, left_hi, level_), Box(right_lo, hi_, level_)};
}

bool operator==(const Box& a, const Box& b) {
  if (a.empty() && b.empty()) return true;
  return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.level_ == b.level_;
}

std::ostream& operator<<(std::ostream& os, const Box& b) {
  return os << "Box[L" << b.level() << ' ' << b.lo() << ".." << b.hi() << ']';
}

Box bounding_union(const Box& a, const Box& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  SSAMR_REQUIRE(a.level() == b.level(), "level mismatch in bounding_union");
  return Box(min(a.lo(), b.lo()), max(a.hi(), b.hi()), a.level());
}

}  // namespace ssamr
