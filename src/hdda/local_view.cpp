#include "hdda/local_view.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

std::vector<LocalBoxView> build_local_views(const std::vector<Box>& boxes,
                                            const std::vector<rank_t>& owners,
                                            int nranks, coord_t ghost,
                                            const SfcKeyIndex& index) {
  SSAMR_REQUIRE(boxes.size() == owners.size(),
                "boxes/owners size mismatch");
  SSAMR_REQUIRE(nranks >= 1, "need at least one rank");
  SSAMR_REQUIRE(index.size() == boxes.size(),
                "key index was built over a different box set");
  SSAMR_REQUIRE(ghost >= 0, "ghost width must be non-negative");

  std::vector<LocalBoxView> views(static_cast<std::size_t>(nranks));
  for (std::size_t k = 0; k < views.size(); ++k)
    views[k].rank = static_cast<rank_t>(k);

  const std::size_t nb = boxes.size();
  for (std::size_t i = 0; i < nb; ++i)
    SSAMR_REQUIRE(owners[i] >= 0 && owners[i] < nranks, "owner out of range");
  if (nb == 0) return views;

  // Neighbor discovery runs in parallel over contiguous box shards: each
  // shard queries the shared (read-only) index with its own scratch and
  // stats, and the shards are stitched back in shard order — box order —
  // so the output is identical for any shard or thread count.  Stats are
  // integer sums, so the merged counters are too.
  ThreadPool& pool = ThreadPool::global();
  // One shard per unit of concurrency times a small oversubscription for
  // balance; exactly one on the serial path, where sharding would only buy
  // a pointless copy.
  const std::size_t nshards =
      pool.worker_count() == 0
          ? 1
          : std::min(nb, static_cast<std::size_t>(pool.concurrency()) * 8);
  const std::size_t chunk = (nb + nshards - 1) / nshards;
  std::vector<std::vector<NeighborLink>> shard_links(nshards);
  std::vector<SfcKeyIndexStats> shard_stats(nshards);
  pool.parallel_for(nshards, [&](std::size_t sh) {
    std::vector<std::uint32_t> candidates;
    std::vector<NeighborLink>& links = shard_links[sh];
    const std::size_t lo = sh * chunk;
    const std::size_t hi = std::min(nb, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      if (boxes[i].empty()) continue;
      const rank_t owner = owners[i];
      index.query(boxes[i].grown(ghost), candidates, shard_stats[sh]);
      for (const std::uint32_t j : candidates) {
        if (j == i || owners[j] == owner) continue;
        links.push_back({static_cast<std::uint32_t>(i), j});
      }
    }
  });
  for (const SfcKeyIndexStats& st : shard_stats) index.merge_stats(st);

  for (std::size_t i = 0; i < nb; ++i)
    if (!boxes[i].empty())
      views[static_cast<std::size_t>(owners[i])].owned.push_back(
          static_cast<std::uint32_t>(i));
  for (const std::vector<NeighborLink>& links : shard_links)
    for (const NeighborLink& l : links)
      views[static_cast<std::size_t>(owners[l.owned])].links.push_back(l);

  // Halo = the distinct neighbor ids of a view's links, in curve order.
  // Views own disjoint state, so this pass is parallel too.
  pool.parallel_for(views.size(), [&](std::size_t k) {
    LocalBoxView& view = views[k];
    std::vector<std::uint32_t> ids;
    ids.reserve(view.links.size());
    for (const NeighborLink& l : view.links) ids.push_back(l.neighbor);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    view.halo.reserve(ids.size());
    for (const std::uint32_t j : ids)
      view.halo.push_back({j, owners[j], index.anchor_key(j)});
    std::sort(view.halo.begin(), view.halo.end(),
              [](const HaloBox& a, const HaloBox& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.id < b.id;
              });
  });
  return views;
}

}  // namespace ssamr
