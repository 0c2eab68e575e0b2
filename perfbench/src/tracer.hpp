#pragma once
/// \file tracer.hpp
/// Host-time spans and counters recorded from outside the library.
///
/// The benchmark never instruments src/: every span is opened by the
/// benchmark's own code around a call into a layer's public interface
/// (directly, or through the decorators in timed.hpp).  Spans are kept in
/// memory and written out once the run is over (main.cpp); run.py reduces
/// them to per-layer self times.
///
/// Each span records two relations:
///   parent     the span that caused it (the op for work handed to the
///              pool, otherwise the innermost span open on the thread);
///   enclosing  the innermost span open on the same thread when it began.
/// They differ only when a pool thread that waits for its own parallel
/// work helps by running an unrelated task: that task is caused by the op
/// but runs nested inside the waiting span, whose self time must not
/// include it.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_safety.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds (std::chrono::steady_clock, which is
/// CLOCK_MONOTONIC on Linux — the clock run.py stamps the launch with).
std::int64_t now_ns();

/// One timed interval.
struct Span {
  const char* name = "";  ///< static string, "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;     ///< causing span, -1 for an op's root span
  int enclosing = -1;  ///< innermost span open on this thread at start
  int op = -1;         ///< op id the span belongs to
  int thread = 0;      ///< small per-thread id (0 = first thread seen)
};

/// Span and counter store shared by all threads of a run.
class Tracer {
 public:
  /// Open a span on the calling thread; `parent` < 0 means "the innermost
  /// span open on this thread".  Returns the span id.
  int open(const char* name, int op, int parent);
  /// Close span `id`, which must be the innermost open span of this thread.
  void close(int id);

  /// Add `n` to the named counter.
  void count(const std::string& name, std::int64_t n);
  /// Record that (scenario, epoch) was generated; counts distinct pairs.
  void mark_epoch(int scenario, int epoch);

  std::vector<Span> spans() const;
  std::map<std::string, std::int64_t> counters() const;
  std::int64_t distinct_epochs() const;

 private:
  mutable ssamr::Mutex mutex_;
  std::vector<Span> spans_ SSAMR_GUARDED_BY(mutex_);
  std::map<std::string, std::int64_t> counters_ SSAMR_GUARDED_BY(mutex_);
  std::set<std::pair<int, int>> epochs_ SSAMR_GUARDED_BY(mutex_);
};

/// RAII span.  A null tracer records nothing, so untraced ops pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int op, int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, op, parent) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// End the span early (idempotent).
  void close() {
    if (id_ >= 0) tracer_->close(id_);
    id_ = -1;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
