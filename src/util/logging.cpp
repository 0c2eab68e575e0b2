#include "util/logging.hpp"

#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "util/thread_safety.hpp"
#include "util/wallclock.hpp"

namespace ssamr {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
// Serializes emission: messages from pool workers (parallel experiment
// trials, parallel runtime stages) must not interleave mid-line.  The sink
// pointer is part of the serialized state — swapping it mid-message would
// tear output across two streams.
Mutex g_write_mutex;
std::ostream* g_sink SSAMR_GUARDED_BY(g_write_mutex) = nullptr;

/// Wall-clock timestamps are opt-in (SSAMR_LOG_TIMESTAMPS=1): log output
/// is the one place nondeterministic time is allowed, and only through the
/// sanctioned wallclock seam.  Diagnostics never feed traces or goldens.
bool timestamps_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SSAMR_LOG_TIMESTAMPS");
    return env != nullptr && *env != '\0' && *env != '0';
  }();
  return enabled;
}
}  // namespace

void Log::set_level(LogLevel lvl) {
  g_level.store(lvl, std::memory_order_relaxed);
}

void Log::set_sink(std::ostream* os) {
  MutexLock lock(g_write_mutex);
  g_sink = os;
}

const char* Log::name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

void Log::write(LogLevel lvl, const std::string& msg) {
  MutexLock lock(g_write_mutex);
  const LogLevel min = g_level.load(std::memory_order_relaxed);
  if (lvl < min || min == LogLevel::Off) return;
  std::ostream& os = g_sink != nullptr ? *g_sink : std::cerr;
  if (timestamps_enabled()) {
    // Restore the stream's formatting: the sink is shared (std::cerr or a
    // test-injected stream) and must not keep our fixed/precision state.
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << std::fixed << std::setprecision(3) << wallclock_since_start()
       << "s ";
    os.flags(flags);
    os.precision(precision);
  }
  os << "[" << name(lvl) << "] " << msg << '\n';
}

}  // namespace ssamr
