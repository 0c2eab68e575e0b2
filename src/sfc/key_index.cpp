#include "sfc/key_index.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <tuple>

#include "util/error.hpp"

namespace ssamr {

namespace {
constexpr coord_t kCoordLimit = coord_t{1} << kMortonBitsPerDim;
}  // namespace

SfcKeyIndex::SfcKeyIndex(const std::vector<Box>& boxes) : boxes_(boxes) {
  level_t max_level = -1;
  for (const Box& b : boxes_)
    if (!b.empty()) max_level = std::max(max_level, b.level());
  levels_.resize(static_cast<std::size_t>(max_level + 1));

  // Pass 1: per-level bias (minimum low corner) and maximum extent.
  std::vector<bool> seen(levels_.size(), false);
  for (const Box& b : boxes_) {
    if (b.empty()) continue;
    auto& li = levels_[static_cast<std::size_t>(b.level())];
    const IntVec lo = b.lo();
    const IntVec e = b.extent();
    if (!seen[static_cast<std::size_t>(b.level())]) {
      li.bias = lo;
      li.max_extent = e;
      seen[static_cast<std::size_t>(b.level())] = true;
    } else {
      li.bias = IntVec(std::min(li.bias.x, lo.x), std::min(li.bias.y, lo.y),
                       std::min(li.bias.z, lo.z));
      li.max_extent =
          IntVec(std::max(li.max_extent.x, e.x),
                 std::max(li.max_extent.y, e.y),
                 std::max(li.max_extent.z, e.z));
    }
  }

  // Pass 2: anchors sorted by (level, z, y, x, id), cut into rows of equal
  // (z, y).  Every level's rows end in a sentinel marking its last run's end.
  std::vector<std::uint32_t> order;
  order.reserve(boxes_.size());
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    const Box& b = boxes_[i];
    if (b.empty()) continue;
    const IntVec p = b.lo() - levels_[static_cast<std::size_t>(b.level())].bias;
    SSAMR_REQUIRE(p.x < kCoordLimit && p.y < kCoordLimit && p.z < kCoordLimit,
                  "level domain exceeds the 21-bit Morton cube");
    order.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const Box& ba = boxes_[a];
              const Box& bb = boxes_[b];
              return std::make_tuple(ba.level(), ba.lo().z, ba.lo().y,
                                     ba.lo().x, a) <
                     std::make_tuple(bb.level(), bb.lo().z, bb.lo().y,
                                     bb.lo().x, b);
            });
  for (const std::uint32_t id : order) {
    const Box& b = boxes_[id];
    LevelIndex& li = levels_[static_cast<std::size_t>(b.level())];
    const IntVec lo = b.lo();
    if (li.rows.empty() || li.rows.back().z != lo.z ||
        li.rows.back().y != lo.y)
      li.rows.push_back(
          {lo.z, lo.y, static_cast<std::uint32_t>(li.anchors.size())});
    li.anchors.push_back({lo.x, id});
  }
  constexpr coord_t kPastEnd = std::numeric_limits<coord_t>::max();
  for (LevelIndex& li : levels_)
    li.rows.push_back(
        {kPastEnd, kPastEnd, static_cast<std::uint32_t>(li.anchors.size())});
}

key_t SfcKeyIndex::anchor_key(std::uint32_t id) const {
  SSAMR_REQUIRE(id < boxes_.size(), "key-index id out of range");
  const Box& b = boxes_[id];
  SSAMR_REQUIRE(!b.empty(), "anchor_key of an empty box");
  const auto& li = levels_[static_cast<std::size_t>(b.level())];
  return morton_encode(b.lo() - li.bias);
}

void SfcKeyIndex::query(const Box& region, std::vector<std::uint32_t>& out,
                        SfcKeyIndexStats& stats) const {
  out.clear();
  if (region.empty()) return;
  const auto lvl = static_cast<std::size_t>(region.level());
  if (region.level() < 0 || lvl >= levels_.size()) return;
  const LevelIndex& li = levels_[lvl];
  if (li.anchors.empty()) return;
  ++stats.queries;

  // A box intersects `region` iff its anchor lies in the window [wlo, whi]
  // — anchors below wlo can never reach the region, anchors above whi start
  // past it — and its high corner reaches the region's low corner.
  const IntVec rlo = region.lo();
  const IntVec wlo = rlo - (li.max_extent - IntVec::splat(1));
  const IntVec whi = region.hi();
  const auto row_before = [](const Row& r, const Row& key) {
    return r.z < key.z || (r.z == key.z && r.y < key.y);
  };
  const auto anchor_before = [](const Anchor& a, coord_t x) {
    return a.x < x;
  };
  const Row* const rows_end = li.rows.data() + li.rows.size() - 1;
  const Row* r =
      std::lower_bound(li.rows.data(), rows_end, Row{wlo.z, wlo.y, 0},
                       row_before);
  while (r != rows_end && r->z <= whi.z) {
    // Rows of one plane below the window's y: jump to its first row in
    // range; rows past it: jump to the next plane.
    if (r->y < wlo.y) {
      r = std::lower_bound(r, rows_end, Row{r->z, wlo.y, 0}, row_before);
      continue;
    }
    if (r->y > whi.y) {
      r = std::lower_bound(r, rows_end, Row{r->z + 1, wlo.y, 0}, row_before);
      continue;
    }
    const Anchor* const a_end = li.anchors.data() + r[1].begin;
    for (const Anchor* a = std::lower_bound(li.anchors.data() + r->begin,
                                            a_end, wlo.x, anchor_before);
         a != a_end && a->x <= whi.x; ++a) {
      ++stats.candidates;
      const IntVec hi = boxes_[a->id].hi();
      if (hi.x >= rlo.x && hi.y >= rlo.y && hi.z >= rlo.z) {
        ++stats.hits;
        out.push_back(a->id);
      }
    }
    ++r;
  }
  // Hits arrive in anchor order — restore the historical ascending-id
  // scan order.
  std::sort(out.begin(), out.end());
}

void SfcKeyIndex::query(const Box& region,
                        std::vector<std::uint32_t>& out) const {
  query(region, out, stats_);
}

std::vector<std::uint32_t> SfcKeyIndex::query(const Box& region) const {
  std::vector<std::uint32_t> out;
  query(region, out);
  return out;
}

void SfcKeyIndex::merge_stats(const SfcKeyIndexStats& s) const {
  stats_.queries += s.queries;
  stats_.candidates += s.candidates;
  stats_.hits += s.hits;
}

}  // namespace ssamr
