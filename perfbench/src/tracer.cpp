#include "tracer.hpp"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {

/// Innermost open span of this thread (-1 when none).
thread_local int t_current = -1;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, int op, int parent) {
  Span s;
  s.name = name;
  s.enclosing = t_current;
  s.parent = parent >= 0 ? parent : t_current;
  s.op = op;
  s.thread = thread_index();
  int id = 0;
  {
    const ssamr::MutexLock lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  t_current = id;
  // Stamp last, so bookkeeping is billed to the enclosing span.
  const std::int64_t t = now_ns();
  const ssamr::MutexLock lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_ns = t;
  return id;
}

void Tracer::close(int id) {
  const std::int64_t t = now_ns();
  const ssamr::MutexLock lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  t_current = s.enclosing;
}

void Tracer::count(const std::string& name, std::int64_t n) {
  const ssamr::MutexLock lock(mutex_);
  counters_[name] += n;
}

void Tracer::mark_epoch(int scenario, int epoch) {
  const ssamr::MutexLock lock(mutex_);
  epochs_.emplace(scenario, epoch);
}

std::vector<Span> Tracer::spans() const {
  const ssamr::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, std::int64_t> Tracer::counters() const {
  const ssamr::MutexLock lock(mutex_);
  return counters_;
}

std::int64_t Tracer::distinct_epochs() const {
  const ssamr::MutexLock lock(mutex_);
  return static_cast<std::int64_t>(epochs_.size());
}

}  // namespace perfbench
