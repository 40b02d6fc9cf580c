#include "src/util/logging.h"

#include <cstdlib>

namespace hacksim {
namespace {

// thread_local: each campaign worker carries the repro recipe of the run it
// is currently executing, so a CHECK failure on any worker prints the
// context of *its* run, not whichever run set the context last.
thread_local std::string g_abort_context;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

void SetAbortContext(std::string context) {
  g_abort_context = std::move(context);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories for readability; the full path is still clickable in
  // most terminals via the trailing :line.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  if (level_ == LogLevel::kFatal) {
    if (!g_abort_context.empty()) {
      std::cerr << "[FATAL] run context: " << g_abort_context << "\n";
    }
    std::cerr.flush();
    std::abort();
  }
}

}  // namespace internal
}  // namespace hacksim
