#pragma once
/// \file patch.hpp
/// A patch: one rectilinear component grid of the adaptive hierarchy,
/// carrying its field data.  Ownership lives in PartitionResult.

#include <utility>

#include "amr/grid_function.hpp"
#include "geom/box.hpp"
#include "util/types.hpp"

namespace ssamr {

/// One component grid (bounding box + cell data) at some level.
class Patch {
 public:
  Patch() = default;

  /// Allocate a patch over `box` with `ncomp` components and `ghost` ghost
  /// cells.
  Patch(const Box& box, int ncomp, int ghost);

  const Box& box() const { return box_; }
  level_t level() const { return box_.level(); }

  /// Field data (current time level).
  GridFunction& data() { return data_; }
  const GridFunction& data() const { return data_; }

  /// Scratch data used as the update target during time integration; same
  /// shape as data().
  GridFunction& scratch() { return scratch_; }
  const GridFunction& scratch() const { return scratch_; }

  /// Swap data and scratch after an update.
  void swap_time_levels() { std::swap(data_, scratch_); }

 private:
  Box box_;
  GridFunction data_;
  GridFunction scratch_;
};

}  // namespace ssamr
