#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/error.hpp"

namespace ssamr {

namespace {

/// Identity of the current thread within its pool: set for worker threads
/// so submit() lands in the worker's own deque and run_one_task() pops
/// locally first.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_queue = 0;  // index into queues_

/// The active global pool; swapped by ThreadPoolOverride (tests).
std::atomic<ThreadPool*> g_override{nullptr};

}  // namespace

int ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("SSAMR_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0)
      return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* override_pool = g_override.load(std::memory_order_acquire))
    return *override_pool;
  static ThreadPool pool(default_thread_count());
  return pool;
}

ThreadPool::ThreadPool(int threads) {
  SSAMR_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  const int nworkers = threads - 1;
  queues_.reserve(static_cast<std::size_t>(nworkers) + 1);
  for (int q = 0; q <= nworkers; ++q)
    queues_.push_back(std::make_unique<Deque>());
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w)
    workers_.emplace_back(
        [this, w] { worker_main(static_cast<std::size_t>(w)); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers drain their queues before exiting; anything still queued was
  // submitted after shutdown began — run it here so no task is lost.
  while (run_one_task()) {
  }
}

void ThreadPool::notify_one() {
  // Notify under the mutex so it pairs with the sleeper's predicate check,
  // closing the decide-to-sleep / task-arrives window.
  MutexLock lock(sleep_mutex_);
  sleep_cv_.notify_one();
}

void ThreadPool::submit(std::function<void()> task) {
  if (worker_count() == 0) {
    task();  // serial path: SSAMR_THREADS=1
    return;
  }
  const std::size_t qi = (tl_pool == this) ? tl_queue : 0;
  {
    Deque& dq = *queues_[qi];
    MutexLock lock(dq.mutex);
    dq.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  notify_one();
}

bool ThreadPool::try_pop(std::size_t queue_index, std::function<void()>& out,
                         bool back) {
  Deque& dq = *queues_[queue_index];
  MutexLock lock(dq.mutex);
  if (dq.tasks.empty()) return false;
  if (back) {
    out = std::move(dq.tasks.back());
    dq.tasks.pop_back();
  } else {
    out = std::move(dq.tasks.front());
    dq.tasks.pop_front();
  }
  return true;
}

bool ThreadPool::run_one_task() {
  if (queues_.empty()) return false;
  std::function<void()> task;
  const std::size_t own =
      (tl_pool == this) ? tl_queue : 0;  // externals use the injection queue
  // Own deque newest-first (locality), then everyone else oldest-first
  // (classic steal order).
  bool found = try_pop(own, task, /*back=*/own != 0);
  for (std::size_t k = 1; !found && k < queues_.size() + 1; ++k) {
    const std::size_t qi = (own + k) % queues_.size();
    found = try_pop(qi, task, /*back=*/false);
  }
  if (!found) return false;
  pending_.fetch_sub(1, std::memory_order_release);
  task();
  return true;
}

void ThreadPool::worker_main(std::size_t index) {
  tl_pool = this;
  tl_queue = index + 1;
  for (;;) {
    if (run_one_task()) continue;
    MutexLock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

void ThreadPool::run_parallel(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> live_helpers{0};
    std::atomic<bool> abort{false};
    Mutex mutex;
    CondVar cv;
    std::exception_ptr error SSAMR_GUARDED_BY(mutex);
  };
  Shared shared;

  auto drain = [&shared, &body, n] {
    for (;;) {
      const std::size_t i =
          shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!shared.abort.load(std::memory_order_relaxed)) {
        try {
          body(i);
        } catch (...) {
          MutexLock lock(shared.mutex);
          if (!shared.error) shared.error = std::current_exception();
          shared.abort.store(true, std::memory_order_relaxed);
        }
      }
      if (shared.done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        MutexLock lock(shared.mutex);
        shared.cv.notify_all();
      }
    }
  };

  // One helper task per worker that could usefully participate.  Helpers
  // reference this stack frame, so the epilogue below must not return
  // until every helper has exited (live_helpers == 0), not merely until
  // all indices ran.
  const int helpers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(worker_count()), n - 1));
  shared.live_helpers.store(helpers, std::memory_order_release);
  for (int h = 0; h < helpers; ++h) {
    submit([&shared, &drain] {
      drain();
      // This decrement must be the helper's LAST access to the shared
      // frame: once it reads 0, the caller below is free to return and
      // destroy `shared`.  No notify here — the caller's bounded wait_for
      // re-checks within 1ms.
      shared.live_helpers.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  drain();  // the calling thread participates

  auto finished = [&shared, n] {
    return shared.done.load(std::memory_order_acquire) >= n &&
           shared.live_helpers.load(std::memory_order_acquire) == 0;
  };
  while (!finished()) {
    // Help with whatever is queued (possibly our own helpers, possibly
    // unrelated tasks) rather than blocking a thread.
    if (run_one_task()) continue;
    MutexLock lock(shared.mutex);
    shared.cv.wait_for(lock, std::chrono::milliseconds(1),
                       [&finished] { return finished(); });
  }
  // Everyone is done, but the analysis (rightly) insists error is read
  // under its guard; the lock is uncontended here.
  std::exception_ptr error;
  {
    MutexLock lock(shared.mutex);
    error = shared.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPoolOverride::ThreadPoolOverride(int threads)
    : pool_(threads),
      previous_(g_override.exchange(&pool_, std::memory_order_acq_rel)) {}

ThreadPoolOverride::~ThreadPoolOverride() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace ssamr
