// Minimal leveled logger. Defaults to WARN so library code stays quiet in
// benchmarks; tests and examples can raise verbosity.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace lsmio {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// The global minimum level that will be emitted.
LogLevel GetLogLevel() noexcept;

namespace internal {

/// Emits one formatted line to stderr; thread-safe.
void LogLine(LogLevel level, const char* file, int line, const std::string& msg);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { LogLine(level_, file_, line_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal

#define LSMIO_LOG(level)                                              \
  if (static_cast<int>(::lsmio::GetLogLevel()) <=                     \
      static_cast<int>(::lsmio::LogLevel::level))                     \
  ::lsmio::internal::LogMessage(::lsmio::LogLevel::level, __FILE__,   \
                                __LINE__)                             \
      .stream()

#define LSMIO_DEBUG LSMIO_LOG(kDebug)
#define LSMIO_INFO LSMIO_LOG(kInfo)
#define LSMIO_WARN LSMIO_LOG(kWarn)
#define LSMIO_ERROR LSMIO_LOG(kError)

}  // namespace lsmio
