#include "tbf/campaign/fault_injector.h"

namespace tbf::campaign {
namespace {

// SplitMix64: cheap, well-distributed, and stable across platforms - the decision
// stream must be identical wherever the worker runs.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double UnitDraw(uint64_t seed, int64_t job_id, int execution, uint64_t salt) {
  uint64_t h = Mix(seed ^ salt);
  h = Mix(h ^ static_cast<uint64_t>(job_id));
  h = Mix(h ^ static_cast<uint64_t>(execution));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1).
}

}  // namespace

FaultInjector::Fault FaultInjector::Decide(int64_t job_id) {
  const int execution = executions_[job_id]++;
  if (!plan_.repeat && execution > 0) {
    return Fault::kNone;
  }
  if (plan_.max_faults >= 0 && injected_ >= plan_.max_faults) {
    return Fault::kNone;
  }
  const double u = UnitDraw(plan_.seed, job_id, execution, 0x7c4f5d2b9e1a6083ull);
  double edge = plan_.crash;
  Fault fault = Fault::kNone;
  if (u < edge) {
    fault = Fault::kCrash;
  } else if (u < (edge += plan_.hang)) {
    fault = Fault::kHang;
  } else if (u < (edge += plan_.corrupt)) {
    fault = Fault::kCorrupt;
  } else if (u < (edge += plan_.truncate)) {
    fault = Fault::kTruncate;
  }
  if (fault != Fault::kNone) {
    ++injected_;
  }
  return fault;
}

void FaultInjector::Corrupt(std::string* payload, uint64_t key) {
  if (payload->empty()) {
    return;
  }
  for (int i = 0; i < 3; ++i) {
    const uint64_t h = Mix(key + static_cast<uint64_t>(i));
    const size_t pos = static_cast<size_t>(h % payload->size());
    // XOR with a nonzero mask always changes the byte, so the CRC check must fire.
    (*payload)[pos] = static_cast<char>((*payload)[pos] ^
                                        static_cast<char>(1 + ((h >> 32) & 0x7f)));
  }
}

void FaultInjector::Truncate(std::string* payload, uint64_t key) {
  if (payload->empty()) {
    return;
  }
  const uint64_t h = Mix(key);
  const size_t keep = static_cast<size_t>(h % payload->size());  // < size: drops >= 1.
  payload->resize(keep);
}

}  // namespace tbf::campaign
