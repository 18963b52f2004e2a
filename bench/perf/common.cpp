#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "perf.h"
#include "tbf/mac/medium.h"
#include "tbf/stats/meters.h"

namespace tbf::perf {

int64_t Tracer::Begin(std::string_view name, int64_t parent) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.name = std::string(name);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id, int64_t events, int64_t count) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<size_t>(id - 1)];
  span.end_ns = now;
  span.events = events;
  span.count = count;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const RunOptions& options) const {
  std::ofstream out(options.spans_path);
  if (!out) {
    return false;
  }
  for (const SpanRecord& s : Snapshot()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
    if (s.events >= 0) {
      out << ",\"events\":" << s.events;
    }
    if (s.count >= 0) {
      out << ",\"count\":" << s.count;
    }
    out << ",\"workload\":\"" << options.workload << "\",\"seed\":" << options.seed
        << ",\"run_tag\":\"" << options.run_tag << "\"}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<const SpanRecord*>> children(spans.size() + 1);
  for (const SpanRecord& s : spans) {
    children[static_cast<size_t>(s.parent)].push_back(&s);
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    // Children of one parent may overlap (sweep jobs run in parallel), so subtract
    // the union of their intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const SpanRecord* c : children[static_cast<size_t>(s.id)]) {
      covered.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : covered) {
      const int64_t from = std::max(a, reach);
      if (b > from) {
        covered_ns += b - from;
        reach = b;
      }
    }
    const double duration_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.events += std::max<int64_t>(s.events, 0);
    t.count += std::max<int64_t>(s.count, 0);
    t.total_s += duration_s;
    t.self_s += duration_s - static_cast<double>(covered_ns) * 1e-9;
    t.durations_s.push_back(duration_s);
  }
  return out;
}

void Report::AddCheck(std::string name, int64_t failures, std::string detail) {
  failed += failures;
  checks.push_back(Check{std::move(name), failures == 0, std::move(detail)});
}

void Report::AddRep(double run_s, double setup_s, double sim_s, int64_t exchanges) {
  reps["run_s"].push_back(run_s);
  reps["setup_s"].push_back(setup_s);
  reps["sim_s_per_s"].push_back(sim_s / run_s);
  reps["exchanges_per_s"].push_back(static_cast<double>(exchanges) / run_s);
}

void AddWholeRunOutcomes(const scenario::Results& results, Fnv* fnv) {
  fnv->Add(results.tasks_completed);
  fnv->Add(results.mac_exchanges);
  fnv->Add(results.mac_collisions);
  fnv->Add(results.ap_drops);
  fnv->Add(results.rtt_sketch.count());
  fnv->Add(results.ap_queue_delay_sketch.count());
  fnv->Add(results.task_latency_sketch.count());
  for (const scenario::FlowResult& flow : results.flows) {
    fnv->Add(flow.flow_id);
    fnv->Add(static_cast<int64_t>(flow.task_completions.size()));
    fnv->Add(flow.completion_time);
    fnv->Add(flow.retransmits);
    fnv->Add(flow.timeouts);
  }
}

void AddOutcomes(const scenario::Results& results, Fnv* fnv) {
  AddWholeRunOutcomes(results, fnv);
  for (const scenario::FlowResult& flow : results.flows) {
    fnv->Add(flow.bytes_delivered);
  }
}

double AirtimeJain(const scenario::Results& results,
                   const std::vector<scenario::StationSpec>& stations) {
  std::vector<double> shares;
  shares.reserve(stations.size());
  for (const scenario::StationSpec& s : stations) {
    shares.push_back(results.AirtimeShare(s.id));
  }
  return stats::JainIndex(shares);
}

void CellCounters::Add(const CellCounters& o) {
  events += o.events;
  event_slots = std::max(event_slots, o.event_slots);
  exchanges += o.exchanges;
  retries += o.retries;
  ifs_updates += o.ifs_updates;
  deadline_rescans += o.deadline_rescans;
  reschedules_skipped += o.reschedules_skipped;
  uplink_rx += o.uplink_rx;
  pool_slots = std::max(pool_slots, o.pool_slots);
  pool_live_end += o.pool_live_end;
  stats_bytes += o.stats_bytes;
}

bool CellCounters::SameDynamics(const CellCounters& o) const {
  return event_slots == o.event_slots && exchanges == o.exchanges &&
         ifs_updates == o.ifs_updates && deadline_rescans == o.deadline_rescans &&
         reschedules_skipped == o.reschedules_skipped && pool_slots == o.pool_slots &&
         pool_live_end == o.pool_live_end;
}

namespace {

// Counts retransmitted exchanges and uplink frames delivered to the AP.
class ExchangeTally : public mac::MediumObserver {
 public:
  void OnExchange(const mac::ExchangeRecord& record) override {
    if (record.attempt > 0) {
      ++retries;
    }
    if (record.tx != kApId && record.success) {
      ++uplink_rx;
    }
  }
  int64_t retries = 0;
  int64_t uplink_rx = 0;
};

}  // namespace

CellRun RunCell(const scenario::ScenarioConfig& config,
                const std::vector<scenario::StationSpec>& stations,
                const std::vector<scenario::FlowSpec>& flows, Tracer* tracer,
                int64_t parent_span) {
  CellRun out;
  ExchangeTally tally;  // Declared first: the medium holds a pointer to it.
  const Clock::time_point start = Clock::now();
  scenario::Wlan wlan(config);
  for (const scenario::StationSpec& s : stations) {
    wlan.AddStation(s);
  }
  for (const scenario::FlowSpec& f : flows) {
    wlan.AddFlow(f);
  }
  {
    Span span(tracer, "Wlan::BuildNow", parent_span);
    wlan.BuildNow();
  }
  out.build_s = SecondsBetween(start, Clock::now());
  if (tracer != nullptr) {
    wlan.medium()->AddObserver(&tally);
    const TimeNs horizon = config.warmup + config.duration;
    for (int k = 1; k <= 100; ++k) {
      Span slice(tracer, "Simulator::RunUntil", parent_span);
      const int64_t events = wlan.simulator().RunUntil(horizon * k / 100);
      slice.Close(events);
      out.counters.events += events;
    }
  }
  {
    Span span(tracer, "Wlan::Run", parent_span);
    out.results = wlan.Run();
  }
  CellCounters& c = out.counters;
  c.event_slots = static_cast<int64_t>(wlan.simulator().event_pool_slots());
  c.exchanges = wlan.medium()->exchanges();
  c.retries = tally.retries;
  c.ifs_updates = wlan.medium()->ifs_updates();
  c.deadline_rescans = wlan.medium()->deadline_rescans();
  c.reschedules_skipped = wlan.medium()->access_reschedules_skipped();
  c.uplink_rx = tally.uplink_rx;
  c.pool_slots = static_cast<int64_t>(wlan.packet_pool().slots());
  c.pool_live_end = static_cast<int64_t>(wlan.packet_pool().live());
  c.stats_bytes = static_cast<int64_t>(wlan.stats_engine().MemoryFootprintBytes());
  return out;
}

void AddOutcomeMetrics(const std::vector<CellView>& cells, Report* report) {
  double goodput_mbps = 0.0;
  double jain = 0.0;
  double busy = 0.0;
  int64_t exchanges = 0;
  int64_t collisions = 0;
  int64_t drops = 0;
  int64_t retransmits = 0;
  int64_t timeouts = 0;
  int64_t windows = 0;
  stats::QuantileSketch queue_delay;
  stats::QuantileSketch task_latency;
  for (const CellView& cell : cells) {
    const scenario::Results& r = *cell.results;
    goodput_mbps += r.AggregateMbps();
    jain += AirtimeJain(r, *cell.stations);
    busy += r.utilization;
    exchanges += r.mac_exchanges;
    collisions += r.mac_collisions;
    drops += r.ap_drops;
    for (const scenario::FlowResult& flow : r.flows) {
      retransmits += flow.retransmits;
      timeouts += flow.timeouts;
    }
    windows += static_cast<int64_t>(r.goodput_series.windows.size());
    queue_delay.Merge(r.ap_queue_delay_sketch);
    task_latency.Merge(r.task_latency_sketch);
  }
  const double n = static_cast<double>(cells.size());
  auto& v = report->values;
  v["goodput_mbps"] = goodput_mbps / n;
  v["airtime_jain"] = jain / n;
  v["transfer_p95_s"] = task_latency.empty() ? 0.0 : task_latency.Quantile(0.95) * 1e-9;
  v["mac.exchanges"] = static_cast<double>(exchanges);
  v["mac.collision_frac"] =
      exchanges > 0 ? static_cast<double>(collisions) / static_cast<double>(exchanges) : 0.0;
  v["mac.busy_frac"] = busy / n;
  v["ap.drops"] = static_cast<double>(drops);
  v["ap.queue_delay_p95_ms"] = queue_delay.empty() ? 0.0 : queue_delay.Quantile(0.95) * 1e-6;
  v["net.tcp_retransmits"] = static_cast<double>(retransmits);
  v["net.tcp_timeouts"] = static_cast<double>(timeouts);
  v["stats.windows"] = static_cast<double>(windows);
}

void AddCellTraceMetrics(Report* report) {
  const CellCounters& c = *report->traced_cells;
  const SpanTotals& kernel = report->spans["Simulator::RunUntil"];
  auto& v = report->values;
  v["sim.events"] = static_cast<double>(c.events);
  v["sim.ns_per_event"] =
      kernel.events > 0 ? kernel.total_s * 1e9 / static_cast<double>(kernel.events) : 0.0;
  v["sim.event_slots"] = static_cast<double>(c.event_slots);
  v["mac.retry_frac"] =
      c.exchanges > 0 ? static_cast<double>(c.retries) / static_cast<double>(c.exchanges) : 0.0;
  v["mac.deadline_rescans"] = static_cast<double>(c.deadline_rescans);
  v["mac.reschedules_skipped"] = static_cast<double>(c.reschedules_skipped);
  v["mac.ifs_updates"] = static_cast<double>(c.ifs_updates);
  // Every traced rep runs the same exchanges, so scale by the rep count.
  const double reps = static_cast<double>(report->spans["rep"].calls);
  v["mac.ns_per_exchange"] =
      c.exchanges > 0 ? kernel.total_s * 1e9 / (static_cast<double>(c.exchanges) * reps) : 0.0;
  v["ap.uplink_rx"] = static_cast<double>(c.uplink_rx);
  v["net.pool_slots"] = static_cast<double>(c.pool_slots);
  v["net.pool_live_end"] = static_cast<double>(c.pool_live_end);
  v["stats.memory_kb"] = static_cast<double>(c.stats_bytes) / 1024.0;
  v["stats.readout_ms"] = Median(report->spans["Wlan::Run"].durations_s) * 1e3;
  v["scenario.build_ms"] = Median(report->spans["Wlan::BuildNow"].durations_s) * 1e3;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0.0;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

}  // namespace tbf::perf
