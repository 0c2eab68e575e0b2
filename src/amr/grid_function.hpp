#pragma once
/// \file grid_function.hpp
/// Cell-centred multi-component field data on one patch, with ghost cells.
///
/// Storage covers box.grown(ghost); indices are *global* index-space
/// coordinates of the patch's level, so copying between overlapping patches
/// needs no index translation.

#include <vector>

#include "geom/box.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Field data on one patch.
class GridFunction {
 public:
  GridFunction() = default;

  /// Allocate zero-initialized data over `box` with `ncomp` components and
  /// `ghost` ghost cells on every face.
  GridFunction(const Box& box, int ncomp, int ghost)
      : box_(box), ncomp_(ncomp), ghost_(ghost) {
    SSAMR_REQUIRE(!box.empty(), "grid function needs a non-empty box");
    SSAMR_REQUIRE(ncomp >= 1, "need at least one component");
    SSAMR_REQUIRE(ghost >= 0, "ghost width must be non-negative");
    storage_ = box.grown(ghost);
    const IntVec e = storage_.extent();
    stride_y_ = e.x;
    stride_z_ = e.x * e.y;
    stride_c_ = stride_z_ * e.z;
    data_.assign(static_cast<std::size_t>(stride_c_) *
                     static_cast<std::size_t>(ncomp),
                 real_t{0});
  }

  /// The interior (valid) region.
  const Box& box() const { return box_; }
  /// The allocated region (interior grown by the ghost width).
  const Box& storage_box() const { return storage_; }
  int ncomp() const { return ncomp_; }
  int ghost() const { return ghost_; }
  bool allocated() const { return !data_.empty(); }

  /// Mutable access at global cell (i,j,k), component c.
  real_t& operator()(int c, coord_t i, coord_t j, coord_t k) {
    return data_[index(c, i, j, k)];
  }
  /// Const access at global cell (i,j,k), component c.
  real_t operator()(int c, coord_t i, coord_t j, coord_t k) const {
    return data_[index(c, i, j, k)];
  }

  /// Fill every component (including ghosts) with a value.
  void fill(real_t v) { data_.assign(data_.size(), v); }

  /// Fill one component (including ghosts) with a value.
  void fill_component(int c, real_t v) {
    SSAMR_REQUIRE(c >= 0 && c < ncomp_, "component out of range");
    const auto begin = static_cast<std::size_t>(c) *
                       static_cast<std::size_t>(stride_c_);
    for (std::size_t i = 0; i < static_cast<std::size_t>(stride_c_); ++i)
      data_[begin + i] = v;
  }

  /// Copy the cells of `region` (global coordinates, must be inside both
  /// storage boxes) from another grid function, all components.
  void copy_from(const GridFunction& src, const Box& region) {
    SSAMR_REQUIRE(src.ncomp_ == ncomp_, "component count mismatch");
    SSAMR_REQUIRE(storage_.contains(region) && src.storage_.contains(region),
                  "copy region must lie in both storage boxes");
    for (int c = 0; c < ncomp_; ++c)
      for (coord_t k = region.lo().z; k <= region.hi().z; ++k)
        for (coord_t j = region.lo().y; j <= region.hi().y; ++j)
          for (coord_t i = region.lo().x; i <= region.hi().x; ++i)
            (*this)(c, i, j, k) = src(c, i, j, k);
  }

  /// Raw storage (test access).
  const std::vector<real_t>& raw() const { return data_; }

 private:
  std::size_t index(int c, coord_t i, coord_t j, coord_t k) const {
    SSAMR_ASSERT(c >= 0 && c < ncomp_, "component out of range");
    SSAMR_ASSERT(storage_.contains(IntVec(i, j, k)),
                 "cell outside storage box");
    const coord_t ox = i - storage_.lo().x;
    const coord_t oy = j - storage_.lo().y;
    const coord_t oz = k - storage_.lo().z;
    return static_cast<std::size_t>(ox + oy * stride_y_ + oz * stride_z_ +
                                    static_cast<coord_t>(c) * stride_c_);
  }

  Box box_;
  Box storage_;
  int ncomp_ = 0;
  int ghost_ = 0;
  coord_t stride_y_ = 0, stride_z_ = 0, stride_c_ = 0;
  std::vector<real_t> data_;
};

}  // namespace ssamr
