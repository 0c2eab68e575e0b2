#pragma once
/// \file event_queue.hpp
/// Deterministic deadline queue for the fluid network simulation
/// (message_sim.hpp): each transfer owns at most one completion deadline,
/// re-timed in place as its rate changes, and equal virtual times pop in
/// a fixed order, so a simulation driven by it is bit-reproducible.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr::sim {

/// Indexed min-heap of per-id deadlines with true decrease-key: each id
/// owns at most one entry, and a position map lets schedule() move an
/// existing entry in place instead of pushing a replacement and lazily
/// discarding the corpse.  For deadline-driven fluid simulations this is
/// decisive — a transfer's completion is re-timed many times before it
/// fires, and the lazy-invalidation alternative spends most of its heap
/// traffic surfacing and discarding stale entries.  Here the heap never
/// holds more than one entry per live id, the top is always valid, and
/// every operation is O(log live) — and because re-timings are small
/// nudges, the sifts average about one level in practice.
///
/// Entries order by (time, schedule sequence): re-scheduling an id stamps
/// it with a fresh sequence number, so ids scheduled for the same virtual
/// time pop in the order of their latest schedule() call and pop order is
/// bit-reproducible.
///
/// The 4-ary layout halves the levels of a binary heap and lets the four
/// children of a node share a cache line; the comparator is a total order
/// (seq breaks every tie), so arity never affects pop order.
class RetimableEventQueue {
 public:
  RetimableEventQueue() = default;

  /// `ids` bounds the id universe (ids are indices below this).
  explicit RetimableEventQueue(std::size_t ids) { reset(ids); }

  /// Empty the queue and re-bound the id universe, keeping the buffers'
  /// capacity (for workspace reuse across simulations).
  void reset(std::size_t ids) {
    heap_.clear();
    pos_.assign(ids, kAbsent);
    next_seq_ = 0;
  }

  /// Insert id's deadline, or move it if one is queued (either direction;
  /// equal-time moves order the id after entries already queued for that
  /// time, as a fresh push would).
  void schedule(Seconds time, std::size_t id) {
    const Item it{time, next_seq_++, static_cast<std::uint32_t>(id)};
    const std::uint32_t p = pos_[id];
    if (p == kAbsent) {
      heap_insert(it);
      return;
    }
    // One sift suffices, and the replaced entry tells the direction: a
    // not-later replacement still bounds the children from below (only an
    // upward violation is possible), a later one keeps the parent bound.
    const bool up = earlier(it, heap_[p]);
    heap_[p] = it;
    if (up)
      sift_up(p);
    else
      sift_down(p);
  }

  /// Drop id's entry if one is queued (no-op otherwise).
  void cancel(std::size_t id) {
    const std::uint32_t p = pos_[id];
    if (p == kAbsent) return;
    pos_[id] = kAbsent;
    heap_erase_unmapped(p);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Hint that `id` is about to be scheduled or cancelled: starts the
  /// position-map line toward the cache so the real operation does not
  /// stall on it.
  void prefetch(std::size_t id) const { __builtin_prefetch(&pos_[id]); }

  /// Second-stage hint: start the heap line holding `id`'s entry.  Only
  /// useful once the position-map line is resident (issue prefetch(id)
  /// far enough ahead), since the heap address depends on it.
  void prefetch_entry(std::size_t id) const {
    const std::uint32_t p = pos_[id];
    if (p != kAbsent) __builtin_prefetch(&heap_[p]);
  }

  /// Copy up to `k` ids from the front of the heap's array (level order,
  /// not sorted) into `out`, returning how many were written.  The heap's
  /// first nodes are the only candidates for the next few pops, so these
  /// serve as prefetch hints for per-id state the caller is about to
  /// touch.
  std::size_t front_ids(std::uint32_t* out, std::size_t k) const {
    const std::size_t m = std::min(k, heap_.size());
    for (std::size_t i = 0; i < m; ++i) out[i] = heap_[i].id;
    // Every pop moves the last entry into the hole; start its line too.
    if (m > 0) __builtin_prefetch(&heap_.back());
    return m;
  }

  /// Time of the earliest queued deadline.
  Seconds next_time() const {
    SSAMR_REQUIRE(!heap_.empty(), "next_time() on empty event queue");
    return heap_.front().time;
  }

  /// Remove and return the earliest deadline's id.
  std::size_t pop() {
    SSAMR_REQUIRE(!heap_.empty(), "pop() on empty event queue");
    const std::uint32_t id = heap_.front().id;
    pos_[id] = kAbsent;
    heap_erase_unmapped(0);
    return id;
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  /// 16 bytes: u32 is ample — ids index one simulation's transfer array
  /// and seq counts schedule() calls within one run.
  struct Item {
    Seconds time{0};
    std::uint32_t seq = 0;
    std::uint32_t id = 0;
  };

  static bool earlier(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void heap_insert(const Item& it) {
    const auto p = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(it);
    pos_[it.id] = p;
    sift_up(p);
  }

  /// Remove heap_[p]; the id's pos_ entry must already be detached.
  void heap_erase_unmapped(std::uint32_t p) {
    const Item last = heap_.back();
    heap_.pop_back();
    if (p == heap_.size()) return;
    const bool up = earlier(last, heap_[p]);
    heap_[p] = last;
    pos_[last.id] = p;
    if (up)
      sift_up(p);
    else
      sift_down(p);
  }

  void sift_up(std::size_t i) {
    const Item x = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(x, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    heap_[i] = x;
    pos_[x.id] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    const Item x = heap_[i];
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= size) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, size);
      for (std::size_t c = first + 1; c < end; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], x)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = x;
    pos_[x.id] = static_cast<std::uint32_t>(i);
  }

  std::vector<Item> heap_;
  std::vector<std::uint32_t> pos_;  ///< id -> heap index, kAbsent if none
  std::uint32_t next_seq_ = 0;
};

}  // namespace ssamr::sim
