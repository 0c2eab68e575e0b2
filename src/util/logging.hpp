#pragma once
/// \file logging.hpp
/// Minimal leveled logger.
///
/// The library is quiet by default (level = Warn); experiment harnesses and
/// examples raise the level to Info to narrate progress.  The logger writes
/// to an injectable std::ostream so tests can capture output.

#include <iosfwd>
#include <sstream>
#include <string>

namespace ssamr {

enum class LogLevel { Trace = 0, Debug, Info, Warn, Error, Off };

/// Process-wide logger configuration and sink.
class Log {
 public:
  /// Set the minimum level to emit.
  static void set_level(LogLevel lvl);
  /// Redirect output (default: std::cerr).  Pass nullptr to restore default.
  static void set_sink(std::ostream* os);
  /// Emit one message at the given level (no-op when below threshold).
  static void write(LogLevel lvl, const std::string& msg);
  /// Human-readable name of a level.
  static const char* name(LogLevel lvl);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { Log::write(lvl_, os_.str()); }
  template <class T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace ssamr

#define SSAMR_LOG(lvl) ::ssamr::detail::LogLine(::ssamr::LogLevel::lvl)
#define SSAMR_INFO SSAMR_LOG(Info)
#define SSAMR_DEBUG SSAMR_LOG(Debug)
#define SSAMR_WARN SSAMR_LOG(Warn)
