// Fatal invariant checks: TBF_CHECK(cond) << "context"; prints the failed condition,
// its source location and the streamed context to stderr, then aborts.
#ifndef TBF_UTIL_LOGGING_H_
#define TBF_UTIL_LOGGING_H_

#include <iostream>

#define TBF_CHECK(cond)                                                               \
  if (cond) {                                                                         \
  } else                                                                              \
    ::tbf::internal::CheckFailure(#cond, __FILE__, __LINE__).stream()

namespace tbf::internal {

// Prints a fatal check failure and aborts on destruction.
class CheckFailure {
 public:
  CheckFailure(const char* cond, const char* file, int line);
  [[noreturn]] ~CheckFailure();

  std::ostream& stream() { return std::cerr; }
};

}  // namespace tbf::internal

#endif  // TBF_UTIL_LOGGING_H_
