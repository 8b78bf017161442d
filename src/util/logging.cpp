#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

namespace isasgd::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

// The sink is rarely installed (daemon only) and never hot-path, so a plain
// mutex around it is fine; the common stderr path takes the same lock only
// to read the (usually empty) function object.
std::mutex g_sink_mu;
LogSink g_sink;

}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  if (bytes != 0 && bytes % (1u << 20) == 0) {
    return std::to_string(bytes >> 20) + " MiB";
  }
  if (bytes != 0 && bytes % (1u << 10) == 0) {
    return std::to_string(bytes >> 10) + " KiB";
  }
  return std::to_string(bytes) + " bytes";
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = std::move(sink);
}

void log_message(LogLevel level, const std::string& message) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(g_sink_mu);
    if (g_sink) {
      g_sink(level, message);
      return;
    }
  }
  using namespace std::chrono;
  const double ts =
      duration<double>(steady_clock::now().time_since_epoch()).count();
  // One fprintf call so concurrent lines do not interleave mid-line.
  std::fprintf(stderr, "[%s %12.3f] %s\n", log_level_name(level), ts,
               message.c_str());
}

}  // namespace isasgd::util
