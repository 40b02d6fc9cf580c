// Flag parsing shared by the command-line tools (hacksim_run, campaign,
// fault_fuzz, bench_scale). A numeric flag must parse completely and land
// inside its bounds; each tool reports a rejected flag on one stderr line
// and exits 2.
#ifndef TOOLS_CLI_FLAGS_H_
#define TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cstring>
#include <string>
#include <type_traits>

namespace hacksim {

// Parses all of `text` as a number in [lo, hi].
template <typename T>
bool ParseNumber(const std::string& text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out >= lo && *out <= hi;
}

// True when `arg` is `--<name>=<value>`; the value lands in `*out`.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

}  // namespace hacksim

#endif  // TOOLS_CLI_FLAGS_H_
