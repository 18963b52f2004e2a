// Trace-replay workload path: transfer recovery from frame-level logs (gap coalescing,
// retry/failure filters, horizon), exact delivery of the logged bytes through the full
// stack, stagger/warmup-independent completion timing (same invariance discipline as
// traffic_model_test.cpp), sweep determinism across pool sizes, and the regression pin
// for TBR's short-burst 1/N initial-share tax (the ROADMAP "known behavior" that
// fast-EWMA TBR erases).
#include <algorithm>
#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "tbf/scenario/wlan.h"
#include "tbf/sweep/sweep_runner.h"
#include "tbf/trace/generators.h"
#include "tbf/trace/replay.h"

namespace tbf::scenario {
namespace {

// Small web-era capture: 3 users, one minute. Big enough to produce several transfers
// per user in both directions, small enough that replaying it is a fast test.
trace::TraceLog SmallWorkshopTrace(uint64_t seed = 17) {
  trace::WorkshopConfig config;
  config.duration = Sec(60);
  config.users = 3;
  config.mean_flow_bytes = 96.0 * 1024.0;
  config.mean_think_sec = 6.0;
  sim::Rng rng(seed);
  return trace::GenerateWorkshopTrace(config, rng);
}

ScenarioConfig ReplayCell(TimeNs duration) {
  ScenarioConfig config;
  config.qdisc = QdiscKind::kFifo;
  config.warmup = 0;  // The exactness checks account for every delivered byte.
  config.duration = duration;
  return config;
}

// ---- Transfer recovery ----------------------------------------------------------------

TEST(TraceReplayTest, CoalescesFramesIntoTransfersByGap) {
  trace::TraceLog log;
  auto frame = [&](TimeNs t, NodeId node, int bytes, bool retry = false,
                   bool success = true) {
    trace::TraceRecord r;
    r.time = t;
    r.node = node;
    r.downlink = true;
    r.bytes = bytes;
    r.retry = retry;
    r.success = success;
    log.Add(r);
  };
  // Node 1: two frames 10 ms apart (one transfer), then a 2 s silence, then another.
  frame(Ms(100), 1, 1500);
  frame(Ms(110), 1, 700);
  frame(Sec(2) + Ms(110), 1, 900);
  // A retry and a failure inside the first burst: filtered out by default.
  frame(Ms(105), 1, 1500, /*retry=*/true);
  frame(Ms(106), 1, 1500, /*retry=*/false, /*success=*/false);
  // Node 2 interleaved, one transfer.
  frame(Ms(50), 2, 4000);

  const trace::TraceReplaySource source(log);
  ASSERT_EQ(source.flows().size(), 2u);
  const trace::ReplayFlow& n1 = source.flows()[0];
  EXPECT_EQ(n1.node, 1);
  EXPECT_TRUE(n1.downlink);
  ASSERT_EQ(n1.tasks.size(), 2u);
  EXPECT_EQ(n1.tasks[0].at, Ms(100));
  EXPECT_EQ(n1.tasks[0].bytes, 1500 + 700);
  EXPECT_EQ(n1.tasks[1].at, Sec(2) + Ms(110));
  EXPECT_EQ(n1.tasks[1].bytes, 900);
  EXPECT_EQ(n1.total_bytes, 3100);
  const trace::ReplayFlow& n2 = source.flows()[1];
  EXPECT_EQ(n2.node, 2);
  EXPECT_EQ(n2.total_bytes, 4000);
  EXPECT_EQ(source.total_bytes(), 7100);
  EXPECT_EQ(source.last_arrival(), Sec(2) + Ms(110));

  // Including retries folds their bytes back in.
  trace::ReplayOptions with_retries;
  with_retries.include_retries = true;
  with_retries.include_failures = true;
  const trace::TraceReplaySource all(log, with_retries);
  EXPECT_EQ(all.flows()[0].total_bytes, 3100 + 3000);

  // A horizon drops transfers starting at or past it (but not frames of earlier ones).
  trace::ReplayOptions capped;
  capped.horizon = Sec(1);
  const trace::TraceReplaySource prefix(log, capped);
  EXPECT_EQ(prefix.flows()[0].tasks.size(), 1u);
  EXPECT_EQ(prefix.flows()[0].total_bytes, 2200);
}

// ---- Exact delivery through the full stack ----------------------------------------------

TEST(TraceReplayTest, ReplayDeliversExactlyLoggedBytesPerFlow) {
  const trace::TraceLog log = SmallWorkshopTrace();
  const trace::TraceReplaySource source(log);
  ASSERT_GT(source.flows().size(), 2u);
  ASSERT_GT(source.total_bytes(), 0);

  Wlan wlan(ReplayCell(source.last_arrival() + Sec(30)));
  for (NodeId id = 1; id <= 3; ++id) {
    wlan.AddStation(id, phy::WifiRate::k11Mbps);
  }
  for (const trace::ReplayFlow& flow : source.flows()) {
    wlan.AddFlow(MakeTraceReplaySpec(flow));
  }
  const Results res = wlan.Run();

  ASSERT_EQ(res.flows.size(), source.flows().size());
  int64_t delivered = 0;
  int64_t tasks = 0;
  for (size_t i = 0; i < res.flows.size(); ++i) {
    const trace::ReplayFlow& logged = source.flows()[i];
    const FlowResult& fr = res.flows[i];
    EXPECT_EQ(fr.client, logged.node);
    // Every logged transfer finished and the flow moved exactly its logged bytes.
    EXPECT_EQ(fr.bytes_delivered, logged.total_bytes) << "flow " << i;
    EXPECT_EQ(fr.task_completions.size(), logged.tasks.size()) << "flow " << i;
    delivered += fr.bytes_delivered;
    tasks += static_cast<int64_t>(fr.task_completions.size());
    // The metrology layer saw the flow: completed transfers report latency percentiles.
    EXPECT_EQ(fr.task_latency.count,
              static_cast<int64_t>(fr.task_durations.size()));
    EXPECT_GT(fr.task_latency.p50, 0);
    EXPECT_LE(fr.task_latency.p50, fr.task_latency.p95);
    EXPECT_LE(fr.task_latency.p95, fr.task_latency.p99);
  }
  EXPECT_EQ(delivered, source.total_bytes());
  EXPECT_EQ(res.tasks_completed, tasks);
  // Cell-wide sketches aggregate every flow's meter.
  EXPECT_EQ(res.task_latency_sketch.count(), tasks);
  EXPECT_GT(res.rtt.count, 0);
  EXPECT_GT(res.ap_queue_delay.count, 0);
}

TEST(TraceReplayTest, UdpReplayDeliversExactlyLoggedBytes) {
  // The UDP path packetizes finite tasks itself (trimmed final datagram); replayed
  // transfers must survive odd byte counts there too.
  trace::TraceLog log;
  trace::TraceRecord r;
  r.node = 1;
  r.downlink = true;
  r.success = true;
  r.time = Ms(10);
  r.bytes = 3333;
  log.Add(r);
  r.time = Sec(3);
  r.bytes = 777;
  log.Add(r);
  const trace::TraceReplaySource source(log);

  Wlan wlan(ReplayCell(Sec(10)));
  wlan.AddStation(1, phy::WifiRate::k11Mbps);
  FlowSpec& spec =
      wlan.AddFlow(MakeTraceReplaySpec(source.flows().front(), Transport::kUdp));
  spec.udp_rate = Mbps(2);
  const Results res = wlan.Run();
  ASSERT_EQ(res.flows.size(), 1u);
  EXPECT_EQ(res.flows[0].bytes_delivered, 3333 + 777);
  EXPECT_EQ(res.flows[0].task_completions.size(), 2u);
}

// ---- Timing invariance ------------------------------------------------------------------

TEST(TraceReplayTest, CompletionTimesStaggerAndWarmupIndependent) {
  trace::TraceLog log;
  trace::TraceRecord r;
  r.node = 1;
  r.downlink = false;
  r.success = true;
  for (const TimeNs t : {Ms(0), Sec(2), Sec(4)}) {
    r.time = t;
    r.bytes = 200'000;
    log.Add(r);
  }
  const trace::TraceReplaySource source(log);

  auto run = [&](TimeNs start, TimeNs warmup) {
    ScenarioConfig config = ReplayCell(Sec(20));
    config.warmup = warmup;
    Wlan wlan(config);
    wlan.AddStation(1, phy::WifiRate::k11Mbps);
    wlan.AddFlow(MakeTraceReplaySpec(source.flows().front())).start = start;
    const Results res = wlan.Run();
    EXPECT_EQ(res.flows.size(), 1u);
    return res.flows.front().task_completions;
  };

  const std::vector<TimeNs> base = run(0, 0);
  ASSERT_EQ(base.size(), 3u);
  EXPECT_GT(base.front(), 0);
  // Shifting the flow's start slides the whole replay; completions are reported
  // relative to the flow's actual start, so they must not move. Neither may the
  // warmup boundary, which only frames the goodput window.
  EXPECT_EQ(run(Ms(250), 0), base);
  EXPECT_EQ(run(0, Sec(2)), base);
  EXPECT_EQ(run(Ms(250), Sec(2)), base);
}

// ---- Sweep determinism ------------------------------------------------------------------

std::vector<sweep::ScenarioJob> ReplayGrid() {
  const trace::TraceLog log = SmallWorkshopTrace(23);
  trace::ReplayOptions options;
  options.horizon = Sec(30);
  const trace::TraceReplaySource source(log, options);

  std::vector<sweep::ScenarioJob> jobs;
  for (const QdiscKind qdisc : {QdiscKind::kFifo, QdiscKind::kTbr}) {
    sweep::ScenarioJob job;
    job.config.qdisc = qdisc;
    job.config.warmup = 0;
    job.config.duration = Sec(45);
    job.config.seed = 5;
    for (NodeId id = 1; id <= 3; ++id) {
      StationSpec station;
      station.id = id;
      station.rate = id == 1 ? phy::WifiRate::k2Mbps : phy::WifiRate::k11Mbps;
      job.stations.push_back(station);
    }
    for (const trace::ReplayFlow& flow : source.flows()) {
      job.flows.push_back(MakeTraceReplaySpec(flow));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(TraceReplaySweepTest, ReplayResultsBitIdenticalAcrossPoolSizes) {
  const std::vector<sweep::ScenarioJob> jobs = ReplayGrid();
  sweep::SweepRunner serial(1);
  const std::vector<Results> reference = serial.RunScenarios(jobs);
  ASSERT_EQ(reference.size(), jobs.size());
  for (const Results& r : reference) {
    EXPECT_GT(r.tasks_completed, 0);
    EXPECT_GT(r.task_latency.count, 0);  // Latency metrology ran in every cell.
  }
  for (const int pool_size : {2, 4}) {
    sweep::SweepRunner parallel(pool_size);
    const std::vector<Results> out = parallel.RunScenarios(jobs);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t i = 0; i < out.size(); ++i) {
      // Results equality is bitwise and now covers the latency summaries and the
      // merged sketches, so this also pins sketch-merge determinism end to end.
      EXPECT_EQ(out[i], reference[i]) << "pool=" << pool_size << " job=" << i;
    }
  }
}

// ---- TBR short-burst initial-share tax --------------------------------------------------

// The burst-tax microcell shared by the stock pin and the adaptive-scheduler checks:
// one active client bursting against one associated-but-idle donor, six 150 kB tasks
// with 50 ms think gaps. Returns the per-task durations of the active flow.
std::vector<TimeNs> RunBurstCell(QdiscKind kind,
                                 core::TbrMode mode = core::TbrMode::kStock) {
  ScenarioConfig config;
  config.qdisc = kind;
  config.tbr.mode = mode;
  config.warmup = 0;
  config.duration = Sec(25);
  Wlan wlan(config);
  wlan.AddStation(1, phy::WifiRate::k11Mbps);
  wlan.AddStation(2, phy::WifiRate::k11Mbps);  // Associated but idle: the 1/N donor.
  FlowSpec& seq = wlan.AddTaskSequence(1, Direction::kDownlink, 150'000, /*count=*/6);
  // Short gaps keep the flow's demand visible to the adjuster; longer idle gaps make
  // the EWMA bleed the donated share back and the tail tax plateaus near 1.35x.
  seq.task_gap = Ms(50);
  const Results res = wlan.Run();
  EXPECT_EQ(res.flows.size(), 1u);
  return res.flows.front().task_durations;
}

TEST(TbrBurstTaxTest, FirstBurstPaysInitialShareTaxUntilAdjusterConverges) {
  // ROADMAP "known behavior": TBR hands every associated client an equal initial time
  // share, so in a mostly-idle cell the first short burst of an active client runs at
  // 1/N of the channel until the 500 ms rate adjuster donates the idle clients' shares.
  // Pin the gap: the first burst of a cold TBR cell is measurably slower than the same
  // burst once rates have converged, and than the unregulated (FIFO) cell, which shows
  // only TCP slow start. Fast-EWMA TBR shrinks tbr_first without regressing tbr_last
  // (AdaptiveSchedulersEraseFirstBurstTax).
  const std::vector<TimeNs> tbr = RunBurstCell(QdiscKind::kTbr);
  const std::vector<TimeNs> fifo = RunBurstCell(QdiscKind::kFifo);
  ASSERT_EQ(tbr.size(), 6u);
  ASSERT_EQ(fifo.size(), 6u);

  const double tax_first =
      static_cast<double>(tbr.front()) / static_cast<double>(fifo.front());
  const double tax_last =
      static_cast<double>(tbr.back()) / static_cast<double>(fifo.back());
  // The cold cell's first burst pays a clear tax over the unregulated baseline
  // (measured 1.66x here)...
  EXPECT_GT(tax_first, 1.3) << "first-burst tax vanished from stock TBR";
  // ...which the adjuster has mostly repaid by the later bursts (measured 1.12x)...
  EXPECT_LT(tax_last, 1.25) << "rate adjuster no longer converges for bursty flows";
  // ...so the first burst is the slow outlier within the TBR run itself.
  EXPECT_GT(static_cast<double>(tbr.front()),
            1.2 * static_cast<double>(tbr.back()));
}

TEST(TbrBurstTaxTest, AdaptiveSchedulersEraseFirstBurstTax) {
  // The bar fast-EWMA TBR was built to clear: its cold first burst lands within 1.2x
  // of the unregulated FIFO cell (stock TBR pays 1.66x above), and the later bursts
  // stay converged - adaptivity must not trade the head tax for a tail one.
  const std::vector<TimeNs> fifo = RunBurstCell(QdiscKind::kFifo);
  ASSERT_EQ(fifo.size(), 6u);
  const std::vector<TimeNs> adaptive =
      RunBurstCell(QdiscKind::kTbr, core::TbrMode::kFastEwma);
  ASSERT_EQ(adaptive.size(), 6u);
  const double tax_first =
      static_cast<double>(adaptive.front()) / static_cast<double>(fifo.front());
  const double tax_last =
      static_cast<double>(adaptive.back()) / static_cast<double>(fifo.back());
  EXPECT_LE(tax_first, 1.2) << "fast-EWMA still pays the cold-start burst tax";
  EXPECT_LT(tax_last, 1.25) << "fast-EWMA regressed converged bursts";
}

// Same grid as ReplayGrid but under fast-EWMA TBR: its 50 ms demand timer is a fresh
// chance to leak pool-order dependence. Pools 1/2/4 must stay bit-identical.
TEST(TraceReplaySweepTest, AdaptiveSchedulerFamilyBitIdenticalAcrossPoolSizes) {
  const trace::TraceLog log = SmallWorkshopTrace(23);
  trace::ReplayOptions options;
  options.horizon = Sec(30);
  const trace::TraceReplaySource source(log, options);

  std::vector<sweep::ScenarioJob> jobs;
  for (const uint64_t seed : {5, 6, 7}) {  // Three jobs, so pools of 2 and 4 overlap.
    sweep::ScenarioJob job;
    job.config.qdisc = QdiscKind::kTbr;
    job.config.tbr.mode = core::TbrMode::kFastEwma;
    job.config.warmup = 0;
    job.config.duration = Sec(45);
    job.config.seed = seed;
    for (NodeId id = 1; id <= 3; ++id) {
      StationSpec station;
      station.id = id;
      station.rate = id == 1 ? phy::WifiRate::k2Mbps : phy::WifiRate::k11Mbps;
      job.stations.push_back(station);
    }
    for (const trace::ReplayFlow& flow : source.flows()) {
      job.flows.push_back(MakeTraceReplaySpec(flow));
    }
    jobs.push_back(std::move(job));
  }

  sweep::SweepRunner serial(1);
  const std::vector<Results> reference = serial.RunScenarios(jobs);
  ASSERT_EQ(reference.size(), jobs.size());
  for (const Results& r : reference) {
    EXPECT_GT(r.tasks_completed, 0);
    EXPECT_GT(r.task_latency.count, 0);
  }
  for (const int pool_size : {2, 4}) {
    sweep::SweepRunner parallel(pool_size);
    const std::vector<Results> out = parallel.RunScenarios(jobs);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], reference[i]) << "pool=" << pool_size << " job=" << i;
    }
  }
}

}  // namespace
}  // namespace tbf::scenario
