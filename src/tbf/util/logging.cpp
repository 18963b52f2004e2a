#include "tbf/util/logging.h"

#include <cstdlib>

namespace tbf::internal {

CheckFailure::CheckFailure(const char* cond, const char* file, int line) {
  std::cerr << "[CHECK failed] " << cond << " at " << file << ":" << line << ": ";
}

CheckFailure::~CheckFailure() {
  std::cerr << "\n";
  std::abort();
}

}  // namespace tbf::internal
