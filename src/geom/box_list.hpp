#pragma once
/// \file box_list.hpp
/// Lists of bounding boxes — the unit of exchange between the AMR hierarchy
/// and the partitioners, mirroring GrACE's "bounding box list" interface
/// (§5.3 of the paper).

#include <vector>

#include "geom/box.hpp"

namespace ssamr {

/// An ordered list of boxes (all at the same or mixed levels, caller's
/// choice) with a few aggregate helpers.
class BoxList {
 public:
  BoxList() = default;
  explicit BoxList(std::vector<Box> boxes) : boxes_(std::move(boxes)) {}

  /// Append one box (empty boxes are skipped).
  void push_back(const Box& b) {
    if (!b.empty()) boxes_.push_back(b);
  }

  /// Append all boxes of another list.
  void append(const BoxList& other) {
    boxes_.insert(boxes_.end(), other.boxes_.begin(), other.boxes_.end());
  }

  bool empty() const { return boxes_.empty(); }
  std::size_t size() const { return boxes_.size(); }
  const Box& operator[](std::size_t i) const { return boxes_[i]; }
  Box& operator[](std::size_t i) { return boxes_[i]; }

  auto begin() const { return boxes_.begin(); }
  auto end() const { return boxes_.end(); }
  auto begin() { return boxes_.begin(); }
  auto end() { return boxes_.end(); }

  const std::vector<Box>& boxes() const { return boxes_; }

  /// Sum of cells() over all boxes (boxes are assumed disjoint; overlaps are
  /// counted multiply).
  std::int64_t total_cells() const;

  /// True when any pair of boxes in the list overlaps (same-level pairs
  /// only; boxes at different levels never count as overlapping).
  bool has_overlap() const;

  /// True when every cell of `probe` is covered by some box in the list
  /// (all boxes must share probe's level).
  bool covers(const Box& probe) const;

 private:
  std::vector<Box> boxes_;
};

}  // namespace ssamr
