#include "partition/distributed_sfc.hpp"

#include <algorithm>
#include <numeric>

#include "partition/partition_audit.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

DistributedSfcPartitioner::DistributedSfcPartitioner(
    SfcConfig sfc, int shard_count, PartitionConstraints constraints)
    : sfc_(sfc), shard_count_(shard_count), constraints_(constraints) {
  SSAMR_REQUIRE(shard_count >= 1, "need at least one shard");
}

PartitionResult DistributedSfcPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const real_t cap_sum = capacity_sum(capacities);
  const std::size_t nproc = capacities.size();

  const std::size_t n = boxes.size();
  const std::size_t nshards = static_cast<std::size_t>(std::clamp(
      shard_count_, 1, std::max(1, static_cast<int>(n))));
  const auto shard_begin = [&](std::size_t s) { return s * n / nshards; };

  // Phase 1 — shard-local keying and sorting.  Each shard owns a contiguous
  // slice of the input list (a rank's local boxes) and orders it by the
  // global comparator (key, level, input position); no shard looks at
  // another shard's boxes.
  std::vector<key_t> keys(n);
  std::vector<std::vector<std::size_t>> runs(nshards);
  const auto curve_less = [&](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    if (boxes[a].level() != boxes[b].level())
      return boxes[a].level() < boxes[b].level();
    return a < b;
  };
  ThreadPool::global().parallel_for(nshards, [&](std::size_t s) {
    const std::size_t lo = shard_begin(s);
    const std::size_t hi = shard_begin(s + 1);
    std::vector<std::size_t>& run = runs[s];
    run.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      keys[i] = sfc_box_key(boxes[i], sfc_);
      run.push_back(i);
    }
    std::sort(run.begin(), run.end(), curve_less);
  });

  // Phase 2 — exscan of the total work: an ordered carry chain over the
  // shards, each adding its boxes in input order to the running sum.  This
  // is the serial left fold of total_work split at shard boundaries, so the
  // floating-point result is bit-identical to the global view's.
  // Each box's work is kept for the cut walk.
  std::vector<real_t> works(n);
  real_t total = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const std::size_t hi = shard_begin(s + 1);
    for (std::size_t i = shard_begin(s); i < hi; ++i) {
      works[i] = box_work(boxes[i], work);
      total += works[i];
    }
  }

  // Capacity-proportional quantile targets L_p = C_p / ΣC · L, cut in rank
  // order.
  const std::vector<real_t> targets =
      capacity_targets(total, capacities, cap_sum);
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});

  // Phase 3 — cut walk over a K-way merge of the shard runs.  The merge
  // reproduces the global curve order one box at a time (heap of shard
  // heads, O(log K) per box); the AssignmentWalk carries the O(P) cursor a
  // real implementation would pipeline along the curve.  No globally sorted
  // box list is ever materialized.
  AssignmentWalk walk(targets, proc_order, work, constraints_);
  std::vector<std::size_t> cursor(nshards, 0);
  const auto head_after = [&](std::size_t sa, std::size_t sb) {
    return curve_less(runs[sb][cursor[sb]], runs[sa][cursor[sa]]);
  };
  std::vector<std::size_t> heap;
  heap.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s)
    if (!runs[s].empty()) heap.push_back(s);
  std::make_heap(heap.begin(), heap.end(), head_after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), head_after);
    const std::size_t s = heap.back();
    heap.pop_back();
    const std::size_t i = runs[s][cursor[s]];
    walk.feed(boxes[i], works[i]);
    if (++cursor[s] < runs[s].size()) {
      heap.push_back(s);
      std::push_heap(heap.begin(), heap.end(), head_after);
    }
  }
  PartitionResult result = walk.take();

  // Debug/audit builds cross-check against the global invariants; this is
  // the only place the scheme touches a global box list.
  SSAMR_AUDIT([&] {
    std::vector<real_t> caps(nproc);
    for (std::size_t p = 0; p < nproc; ++p) caps[p] = capacities[p] / cap_sum;
    return audit::validate_partition(boxes, result, caps, work, constraints_);
  }());
  return result;
}

}  // namespace ssamr
