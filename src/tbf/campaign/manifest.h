// Campaign manifests: the declarative, wire-shippable form of a scenario sweep.
//
// A campaign is a parameter-grid of deterministic scenario runs (for example
// schedulers x traffic models x cell sizes x seeds, easily 10^6 jobs) distributed
// across worker processes. A CampaignJob is sweep::ScenarioJob minus the one thing
// that cannot travel: the `configure` callback. Everything left is plain data with
// value semantics, so a job can be binary-encoded (campaign/codec.h), handed to any
// worker on any host, and re-run any number of times with bit-identical Results -
// which is what makes re-dispatch after a crash safe and resume-from-log exact.
//
// Job identity is positional: job i is manifest.jobs[i], and every protocol message,
// completion-log record, and archive slot refers to jobs by that index. A manifest is
// therefore regenerated (same builder, same parameters) rather than mutated; the
// fingerprint ties a completion log to the manifest that produced it.
#ifndef TBF_CAMPAIGN_MANIFEST_H_
#define TBF_CAMPAIGN_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tbf/scenario/wlan.h"
#include "tbf/sweep/sweep_runner.h"

namespace tbf::campaign {

// One shippable scenario run. Plain data only - no callbacks, no pointers.
struct CampaignJob {
  scenario::ScenarioConfig config;
  std::vector<scenario::StationSpec> stations;
  std::vector<scenario::FlowSpec> flows;

  friend bool operator==(const CampaignJob&, const CampaignJob&) = default;
};

struct Manifest {
  std::vector<CampaignJob> jobs;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

// The in-process form: a ScenarioJob with no configure hook.
sweep::ScenarioJob ToScenarioJob(const CampaignJob& job);

// Validates every job with scenario::ValidateScenario. Returns an empty string when
// the whole manifest is runnable, else a diagnostic naming the first offending job -
// the coordinator refuses to dispatch anything from an invalid manifest.
std::string ValidateManifest(const Manifest& manifest);

// CRC over every encoded job: identifies the manifest a completion log belongs to, so
// a resume with different parameters fails loudly instead of merging foreign results.
uint32_t ManifestFingerprint(const Manifest& manifest);

// Deterministic small-cell grid used by the campaign smoke tests, the CI fault
//-injection job, and the tbf-campaign CLI presets: job i cycles qdisc (FIFO, TBR, RR,
// DRR), station count (1-3), rate pairs, direction, and transport (CBR UDP with some
// TCP), with seed = seed + i. Scenario durations are deliberately tiny so a
// 10^2..10^3-job campaign finishes in seconds; scale `warmup`/`duration` up for real
// measurement campaigns.
struct SmokeGridSpec {
  int jobs = 200;
  uint64_t seed = 1;
  TimeNs warmup = Ms(20);
  TimeNs duration = Ms(150);
};

Manifest MakeSmokeGrid(const SmokeGridSpec& spec);

}  // namespace tbf::campaign

#endif  // TBF_CAMPAIGN_MANIFEST_H_
