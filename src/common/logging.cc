#include "common/logging.h"

#include "common/synchronization.h"

#include <cstdio>
#include <cstring>

namespace lsmio {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
lsmio::Mutex g_log_mutex;

const char* LevelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() noexcept { return static_cast<LogLevel>(g_level.load()); }

namespace internal {

void LogLine(LogLevel level, const char* file, int line, const std::string& msg) {
  const char* base = std::strrchr(file, '/');
  base = base ? base + 1 : file;
  lsmio::MutexLock lock(&g_log_mutex);
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line, msg.c_str());
}

}  // namespace internal
}  // namespace lsmio
