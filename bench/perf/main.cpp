// tbf_perf --workload W --seed N --seconds S [--trace 0|1] [--spans F] [--run-tag T]
// tbf_perf --provenance
//
// Runs one workload and prints one JSON object on its last line of output: every rep's
// times, the run's values (outcomes and per-layer metrics), the checks and the digest.
// bench/perf/run.py turns that into the benchmark's metrics; see README.md.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perf.h"

namespace {

using namespace tbf::perf;

void PrintString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintNumber(double v) { std::printf("%.17g", v); }

void PrintProvenance() {
  std::printf("{\"build_type\":");
  PrintString(TBF_PERF_BUILD_TYPE);
  std::printf(",\"compiler\":");
  PrintString(std::string(TBF_PERF_CXX_ID) + " " + TBF_PERF_CXX_VERSION);
  std::printf(",\"cxx_flags\":");
  PrintString(TBF_PERF_CXX_FLAGS);
  std::printf(",\"hardware_threads\":%u}\n", std::thread::hardware_concurrency());
}

void PrintReport(const RunOptions& options, const Report& r) {
  std::printf("{\"workload\":");
  PrintString(options.workload);
  std::printf(",\"seed\":%" PRIu64 ",\"trace\":%d,\"threads\":%d", options.seed,
              options.trace ? 1 : 0, options.threads);
  std::printf(",\"attempted\":%" PRId64 ",\"failed\":%" PRId64, r.attempted, r.failed);
  std::printf(",\"digest\":\"%016" PRIx64 "\"", r.digest);
  std::printf(",\"reps\":{");
  const char* sep = "";
  for (const auto& [name, samples] : r.reps) {
    std::printf("%s", sep);
    PrintString(name);
    std::printf(":[");
    for (size_t i = 0; i < samples.size(); ++i) {
      std::printf(i == 0 ? "" : ",");
      PrintNumber(samples[i]);
    }
    std::printf("]");
    sep = ",";
  }
  std::printf("},\"values\":{");
  sep = "";
  for (const auto& [name, value] : r.values) {
    std::printf("%s", sep);
    PrintString(name);
    std::printf(":");
    PrintNumber(value);
    sep = ",";
  }
  std::printf("},\"checks\":[");
  sep = "";
  for (const Report::Check& c : r.checks) {
    std::printf("%s{\"name\":", sep);
    PrintString(c.name);
    std::printf(",\"ok\":%s,\"detail\":", c.ok ? "true" : "false");
    PrintString(c.detail);
    std::printf("}");
    sep = ",";
  }
  std::printf("],\"spans\":{");
  sep = "";
  for (const auto& [name, t] : r.spans) {
    std::printf("%s", sep);
    PrintString(name);
    std::printf(":{\"calls\":%" PRId64 ",\"total_s\":", t.calls);
    PrintNumber(t.total_s);
    std::printf(",\"self_s\":");
    PrintNumber(t.self_s);
    std::printf(",\"events\":%" PRId64 ",\"count\":%" PRId64 "}", t.events, t.count);
    sep = ",";
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: tbf_perf --workload cell_large|replay_grid|campus_sharded|"
               "campaign_grid --seed N --seconds S [--trace 0|1] [--spans FILE] "
               "[--run-tag TAG]\n       tbf_perf --provenance\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--provenance") {
      PrintProvenance();
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--run-tag") {
      options.run_tag = value;
    } else {
      return Usage();
    }
  }

  void (*workload)(const RunOptions&, Tracer*, Report*) = nullptr;
  if (options.workload == "cell_large") {
    workload = RunCellLarge;
  } else if (options.workload == "replay_grid") {
    workload = RunReplayGrid;
  } else if (options.workload == "campus_sharded") {
    workload = RunCampusSharded;
  } else if (options.workload == "campaign_grid") {
    workload = RunCampaignGrid;
  } else {
    return Usage();
  }

  Tracer tracer;
  Report report;
  try {
    workload(options, options.trace ? &tracer : nullptr, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbf_perf: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) {
    report.spans = SummarizeSpans(tracer.Snapshot());
    if (report.traced_cells) {
      AddCellTraceMetrics(&report);
    }
    if (!options.spans_path.empty() && !tracer.WriteJsonl(options)) {
      std::fprintf(stderr, "tbf_perf: cannot write %s\n", options.spans_path.c_str());
      return 1;
    }
  }
  PrintReport(options, report);
  return 0;
}
