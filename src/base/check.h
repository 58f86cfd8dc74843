#ifndef MONDET_BASE_CHECK_H_
#define MONDET_BASE_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

/// MONDET_CHECK(cond) aborts with a diagnostic when `cond` is false.
///
/// The library does not use exceptions (per the project style); invariant
/// violations are programming errors and terminate the process. Recoverable
/// failures (e.g. parse errors) are reported through return values instead.
#define MONDET_CHECK(cond)                                                   \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "MONDET_CHECK failed at %s:%d: %s\n", __FILE__,   \
                   __LINE__, #cond);                                         \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

namespace mondet {

/// Deliberate fault injection for the fuzz harness' self-test
/// (scripts/check_fuzz_fault.sh): true iff the MONDET_FAULT environment
/// variable, read once per process, names `fault`. Each fault breaks one
/// engine in a way its differential oracle must catch and shrink.
inline bool FaultInjected(std::string_view fault) {
  static const std::string env = [] {
    const char* v = std::getenv("MONDET_FAULT");
    return std::string(v != nullptr ? v : "");
  }();
  return env == fault;
}

}  // namespace mondet

#endif  // MONDET_BASE_CHECK_H_
