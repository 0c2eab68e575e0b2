#pragma once
/// \file thread_pool.hpp
/// Work-stealing thread pool for the embarrassingly parallel stages of the
/// SAMR pipeline (per-patch integration, flagging, per-rank cost
/// evaluation, independent experiment trials).
///
/// Determinism contract: every parallel primitive here produces results
/// that are *bit-identical* to the serial path, at any thread count.
///  - parallel_for(n, body): body(i) may only write to state owned by
///    index i (its patch, its result slot).  The index set and the
///    per-index computation are the same as the serial loop; only the
///    execution order differs, which by the ownership rule cannot be
///    observed.
///  - transform_reduce_ordered(n, init, map, combine): map(i) runs in
///    parallel into per-index slots; the combine walks the slots serially
///    in index order 0..n-1.  Floating-point reductions therefore
///    associate exactly as the serial loop does.
/// This is what makes the determinism and golden-file regression tests
/// possible (tests/determinism_test.cpp, tests/golden/).
///
/// Concurrency: `SSAMR_THREADS` sets the total concurrency (workers + the
/// calling thread).  Unset or 0 means std::thread::hardware_concurrency();
/// 1 means the fully serial path (no worker threads, every primitive runs
/// inline).  Threads waiting on parallel work *help*: they pop and steal
/// queued tasks instead of blocking, so nested parallel_for calls (a
/// parallel experiment trial whose runtime parallelizes its own cost
/// evaluation) compose without deadlock.

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_safety.hpp"

namespace ssamr {

/// Work-stealing pool.  Each worker owns a deque: new tasks submitted from
/// a worker go to its own deque (popped LIFO for locality), tasks from
/// outside go to a shared injection queue, and idle workers steal FIFO
/// from their siblings.
class ThreadPool {
 public:
  /// \param threads total concurrency including the calling thread; the
  ///        pool spawns max(0, threads - 1) workers.  threads <= 1 means
  ///        no workers: submit() runs tasks inline and the parallel
  ///        primitives degenerate to the plain serial loops.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (0 on the serial path).
  int worker_count() const { return static_cast<int>(workers_.size()); }
  /// Total concurrency the pool was built for (workers + caller).
  int concurrency() const { return worker_count() + 1; }

  /// Thread count from the environment: SSAMR_THREADS, or
  /// hardware_concurrency() when unset/0/invalid (minimum 1).
  static int default_thread_count();

  /// The process-wide pool, sized from SSAMR_THREADS on first use (or the
  /// active ThreadPoolOverride — see below).
  static ThreadPool& global();

  /// Enqueue a task.  On the serial path the task runs inline.
  void submit(std::function<void()> task);

  /// Run one queued task if any is available (pop own deque, then the
  /// injection queue, then steal).  Returns false when nothing was run.
  /// This is the "help" primitive used by waiting threads.
  bool run_one_task();

  /// Parallel loop over [0, n).  body(i) must only touch state owned by
  /// index i (see the determinism contract above).  Exceptions from body
  /// are propagated: the first one thrown (in completion order) is
  /// rethrown on the calling thread after all in-flight work drains.
  /// Blocks until every index has run; the caller participates.
  template <class Body>
  void parallel_for(std::size_t n, const Body& body) {
    if (n == 0) return;
    if (worker_count() == 0 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    run_parallel(n, [&body](std::size_t i) { body(i); });
  }

  /// Deterministic ordered reduction: acc = combine(acc, map(i)) for
  /// i = 0..n-1, with the map evaluated in parallel and the combine applied
  /// serially in index order — bit-identical to the serial loop.
  template <class T, class Map, class Combine>
  T transform_reduce_ordered(std::size_t n, T init, const Map& map,
                             const Combine& combine) {
    if (n == 0) return init;
    if (worker_count() == 0 || n == 1) {
      T acc = std::move(init);
      for (std::size_t i = 0; i < n; ++i) acc = combine(acc, map(i));
      return acc;
    }
    std::vector<T> slots(n);
    run_parallel(n, [&](std::size_t i) { slots[i] = map(i); });
    T acc = std::move(init);
    for (std::size_t i = 0; i < n; ++i) acc = combine(acc, slots[i]);
    return acc;
  }

 private:
  struct Deque {
    Mutex mutex;
    std::deque<std::function<void()>> tasks SSAMR_GUARDED_BY(mutex);
  };

  void worker_main(std::size_t index);
  void run_parallel(std::size_t n,
                    const std::function<void(std::size_t)>& body);
  bool try_pop(std::size_t queue_index, std::function<void()>& out,
               bool back);
  void notify_one();

  // queues_[0] is the injection queue; queues_[i + 1] belongs to worker i.
  std::vector<std::unique_ptr<Deque>> queues_;
  std::vector<std::thread> workers_;
  // Not a guard for any field (pending_/stop_ are atomics): it closes the
  // decide-to-sleep / task-arrives race between notify_one() and the
  // sleepers' predicate re-check in worker_main().
  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
};

/// RAII override of ThreadPool::global() — used by the determinism tests
/// to re-run identical workloads at several thread counts in one process.
/// Install/remove only from a single thread with no parallel work in
/// flight.
class ThreadPoolOverride {
 public:
  explicit ThreadPoolOverride(int threads);
  ~ThreadPoolOverride();
  ThreadPoolOverride(const ThreadPoolOverride&) = delete;
  ThreadPoolOverride& operator=(const ThreadPoolOverride&) = delete;

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace ssamr
