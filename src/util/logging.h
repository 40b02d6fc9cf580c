// Minimal logging and invariant-checking support for the simulator.
//
// Philosophy (per C++ Core Guidelines E.12/I.6): programmer errors and broken
// invariants abort via CHECK; recoverable conditions are modelled with
// std::optional or status enums at the call site, never with exceptions on
// hot paths.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

namespace hacksim {

// Every message goes to stderr; kFatal aborts after emitting.
enum class LogLevel : int {
  kWarning,
  kFatal,
};

// One-line run context (seed, topology, fault plan, ...) emitted right
// before any FATAL abort, so a CHECK death in CI is reproducible from the
// log alone. Harnesses (RunScenario, the fuzz driver) overwrite it at the
// start of every run; empty means "print nothing extra". The context is
// thread-local: each campaign worker holds the repro of the run it is
// executing, so an abort on any worker names the right run.
void SetAbortContext(std::string context);

namespace internal {

// Accumulates one log statement and emits it (to stderr) on destruction.
// FATAL messages abort the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows streamed values when DCHECK is compiled out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace hacksim

#define LOG(level)                                                        \
  ::hacksim::internal::LogMessage(::hacksim::LogLevel::k##level, __FILE__, \
                                  __LINE__)                                \
      .stream()

// CHECK is always on (release included): simulation correctness depends on
// these invariants and silent corruption would invalidate every experiment.
#define CHECK(cond)                                                       \
  if (cond) {                                                             \
  } else                                                                  \
    ::hacksim::internal::LogMessage(::hacksim::LogLevel::kFatal,          \
                                    __FILE__, __LINE__)                   \
            .stream()                                                     \
        << "CHECK failed: " #cond " "

#define CHECK_EQ(a, b) CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_NE(a, b) CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_LT(a, b) CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_LE(a, b) CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_GT(a, b) CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_GE(a, b) CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define DCHECK(cond) \
  if (true) {        \
  } else             \
    ::hacksim::internal::NullStream()
#else
#define DCHECK(cond) CHECK(cond)
#endif

#endif  // SRC_UTIL_LOGGING_H_
