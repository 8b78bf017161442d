// Leveled stderr logging. Intentionally tiny: the solvers are hot-loop code
// and must never log from inside an iteration, so the logger optimises for
// ergonomics of coarse progress messages, not throughput.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace isasgd::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line: `[LEVEL ts] message`. Thread-safe (single write call).
void log_message(LogLevel level, const std::string& message);

/// Pluggable destination for log lines that pass the threshold. The daemon
/// installs one to redirect the library's warnings/errors (e.g. the
/// StreamingSource materialize() fallback) into its own per-job log file
/// instead of the controlling terminal's stderr.
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Installs `sink` as the destination for all subsequent log lines; passing
/// an empty function restores the stderr default. The sink is invoked under
/// an internal mutex (one line at a time) and must not log re-entrantly.
void set_log_sink(LogSink sink);

/// Fixed-width display name ("DEBUG", "INFO ", ...) for sinks that format
/// their own lines.
[[nodiscard]] const char* log_level_name(LogLevel level);

/// Exact size for log lines: "N MiB" or "N KiB" when `bytes` is a whole
/// multiple, else "N bytes" — never rounded, so a 16 KiB cache budget does
/// not read as "0 MiB".
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }
  template <class T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace isasgd::util
