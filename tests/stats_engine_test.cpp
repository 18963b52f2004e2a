// StatsEngine: the bounded-memory metrology bar. Windowed series must agree with the
// whole-stream distribution, merge trees must be invariant to shard count and barrier
// cadence, the space-saving retention must honor its documented error bound on
// heavy-tailed (Pareto) byte mixes, the uniform sample must be engine-independent, and
// a windowed sweep must stay bit-identical across pool sizes (the repo's standing
// determinism bar, extended to the new series output).
#include "tbf/stats/engine.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/scenario/wlan.h"
#include "tbf/sweep/sweep_runner.h"

namespace tbf::stats {
namespace {

// A deterministic latency-ish sample stream: (time, value) pairs in time order,
// attributed round-robin to `flows` flow ids starting at 1.
struct Sample {
  int flow_id;
  TimeNs at;
  TimeNs value;
};

std::vector<Sample> MakeStream(int flows, int count, TimeNs span) {
  std::vector<Sample> out;
  out.reserve(static_cast<size_t>(count));
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<TimeNs> value(Us(50), Ms(20));
  for (int i = 0; i < count; ++i) {
    Sample s;
    s.flow_id = 1 + i % flows;
    s.at = span * i / count;  // Nondecreasing, spread over [0, span).
    s.value = value(rng);
    out.push_back(s);
  }
  return out;
}

StatsConfig Windowed(TimeNs window, int top_k = 0) {
  StatsConfig c;
  c.window = window;
  c.top_k = top_k;
  return c;
}

TEST(StatsEngineTest, DefaultMetersEqualMergedPerFlowSketches) {
  // The default config retains every flow and still keeps the engine-wide meters, so
  // each meter is the merge of the per-flow sketches, bit for bit.
  StatsEngine engine;
  const std::vector<Sample> stream = MakeStream(5, 3000, Sec(1));
  for (int f = 1; f <= 5; ++f) {
    engine.RegisterFlow(f);
  }
  for (const Sample& s : stream) {
    engine.RecordRtt(s.flow_id, s.at, s.value);
    engine.RecordQueueDelay(s.flow_id, s.at, s.value / 3);
    engine.RecordTaskCompletion(s.flow_id, s.at, s.value * 7);
  }
  engine.FlushAll();
  QuantileSketch rtt, queue_delay, task_latency;
  for (int f = 1; f <= 5; ++f) {
    const FlowStats* fs = engine.flow(f);
    ASSERT_NE(fs, nullptr);
    EXPECT_TRUE(fs->retained);
    rtt.Merge(fs->rtt_sketch);
    queue_delay.Merge(fs->queue_delay_sketch);
    task_latency.Merge(fs->task_latency_sketch);
  }
  EXPECT_EQ(engine.meter(kRtt).count(), static_cast<int64_t>(stream.size()));
  EXPECT_EQ(engine.meter(kRtt), rtt);
  EXPECT_EQ(engine.meter(kQueueDelay), queue_delay);
  EXPECT_EQ(engine.meter(kTaskLatency), task_latency);
  EXPECT_TRUE(engine.series(kRtt).windows.empty());  // No series without windows.
}

TEST(StatsEngineTest, WindowedWholeRunMatchesUnwindowedStream) {
  // The same stream through a windowed engine and an unwindowed top-K engine must
  // yield the same whole-run distribution: sealing is just a reordering of additive
  // sketch merges, so the folded result is bit-identical, not merely close.
  StatsEngine windowed(Windowed(Ms(50)));
  StatsEngine whole(Windowed(0, /*top_k=*/4));  // window == 0, sampled retention.
  const std::vector<Sample> stream = MakeStream(7, 5000, Sec(1));
  for (int f = 1; f <= 7; ++f) {
    windowed.RegisterFlow(f);
    whole.RegisterFlow(f);
  }
  for (const Sample& s : stream) {
    windowed.RecordRtt(s.flow_id, s.at, s.value);
    whole.RecordRtt(s.flow_id, s.at, s.value);
    windowed.RecordQueueDelay(s.flow_id, s.at, s.value / 2);
    whole.RecordQueueDelay(s.flow_id, s.at, s.value / 2);
  }
  windowed.FlushAll();
  whole.FlushAll();
  EXPECT_EQ(windowed.meter(kRtt), whole.meter(kRtt));
  EXPECT_EQ(windowed.meter(kQueueDelay), whole.meter(kQueueDelay));
  EXPECT_FALSE(windowed.series(kRtt).windows.empty());
  EXPECT_TRUE(whole.series(kRtt).windows.empty());  // No series without windows.
}

TEST(StatsEngineTest, SeriesPartitionsTheStreamByWindow) {
  const TimeNs kWindow = Ms(100);
  StatsEngine engine(Windowed(kWindow));
  engine.RegisterFlow(1);
  const std::vector<Sample> stream = MakeStream(1, 3000, Ms(950));
  std::map<int64_t, int64_t> expected;  // window index -> sample count
  for (const Sample& s : stream) {
    engine.RecordRtt(1, s.at, s.value);
    ++expected[s.at / kWindow];
  }
  engine.FlushAll();
  const MeterSeries series = engine.series(kRtt);
  EXPECT_EQ(series.window, kWindow);
  ASSERT_EQ(series.windows.size(), expected.size());
  size_t i = 0;
  int64_t total = 0;
  for (const auto& [index, count] : expected) {
    const WindowStat& ws = series.windows[i++];
    EXPECT_EQ(ws.start, index * kWindow);
    EXPECT_EQ(ws.count, count);
    EXPECT_GT(ws.p50, 0);
    EXPECT_LE(ws.p50, ws.p95);
    EXPECT_LE(ws.p95, ws.p99);
    total += ws.count;
  }
  EXPECT_EQ(total, static_cast<int64_t>(stream.size()));
}

// Distributes the stream over `shards` child engines (flow -> shard by modulo),
// replays it with barrier seals every `barrier` ns in a fixed child order, and
// returns the fully-flushed parent. Mirrors the CampusSim coordinator contract.
StatsEngine RunShardedMergeTree(const std::vector<Sample>& stream, int flows,
                                int shards, TimeNs barrier, TimeNs span) {
  StatsEngine parent(Windowed(Ms(50)));
  std::vector<StatsEngine> children;
  for (int s = 0; s < shards; ++s) {
    children.emplace_back(Windowed(Ms(50)));
  }
  for (int f = 1; f <= flows; ++f) {
    children[static_cast<size_t>(f % shards)].RegisterFlow(f);
  }
  size_t next = 0;
  for (TimeNs t = barrier; t <= span + barrier; t += barrier) {
    while (next < stream.size() && stream[next].at < t) {
      const Sample& s = stream[next++];
      StatsEngine& child = children[static_cast<size_t>(s.flow_id % shards)];
      child.RecordRtt(s.flow_id, s.at, s.value);
      child.RecordTaskCompletion(s.flow_id, s.at, s.value * 3);
      child.RecordBytes(s.flow_id, s.at, s.value);  // Bytes ride the same windows.
    }
    for (StatsEngine& child : children) {
      child.SealWindowsUpTo(t, &parent);
    }
    parent.SealWindowsUpTo(t);
  }
  for (StatsEngine& child : children) {
    child.FlushAll(&parent);
  }
  parent.FlushAll();
  return parent;
}

TEST(StatsEngineTest, MergeTreeIsInvariantToShardCountAndBarrierCadence) {
  const int kFlows = 12;
  const TimeNs kSpan = Sec(1);
  const std::vector<Sample> stream = MakeStream(kFlows, 8000, kSpan);
  const StatsEngine serial = RunShardedMergeTree(stream, kFlows, 1, Ms(125), kSpan);
  ASSERT_FALSE(serial.series(kRtt).windows.empty());
  for (int shards : {2, 4}) {
    const StatsEngine sharded =
        RunShardedMergeTree(stream, kFlows, shards, Ms(125), kSpan);
    EXPECT_EQ(sharded.series(kRtt), serial.series(kRtt)) << shards;
    EXPECT_EQ(sharded.series(kTaskLatency), serial.series(kTaskLatency)) << shards;
    EXPECT_EQ(sharded.meter(kRtt), serial.meter(kRtt)) << shards;
    EXPECT_EQ(sharded.meter(kTaskLatency), serial.meter(kTaskLatency)) << shards;
    EXPECT_EQ(sharded.bytes_series(), serial.bytes_series()) << shards;
  }
  // Barrier cadence must not matter either: windows seal by index, not by when the
  // coordinator got around to sealing them.
  const StatsEngine coarse = RunShardedMergeTree(stream, kFlows, 4, Ms(500), kSpan);
  EXPECT_EQ(coarse.series(kRtt), serial.series(kRtt));
  EXPECT_EQ(coarse.meter(kRtt), serial.meter(kRtt));
  EXPECT_EQ(coarse.bytes_series(), serial.bytes_series());
  // The goodput series is exact integer bookkeeping, so check it against ground truth
  // too: per-window record counts and byte sums over the raw stream.
  std::map<int64_t, ByteWindow> truth;
  for (const Sample& s : stream) {
    ByteWindow& w = truth[s.at / Ms(50)];
    w.start = (s.at / Ms(50)) * Ms(50);
    ++w.count;
    w.bytes += s.value;
  }
  const ByteSeries series = serial.bytes_series();
  EXPECT_EQ(series.window, Ms(50));
  ASSERT_EQ(series.windows.size(), truth.size());
  size_t i = 0;
  for (const auto& [index, expect] : truth) {
    EXPECT_EQ(series.windows[i], expect) << "window " << index;
    ++i;
  }
}

TEST(StatsEngineTest, GoodputSeriesEmptyWithoutWindowing) {
  // window == 0 keeps RecordBytes feeding only the heavy-hitter totals; the series
  // stays empty rather than accumulating one unbounded pseudo-window.
  StatsEngine engine(Windowed(0, /*top_k=*/2));
  engine.RegisterFlow(1);
  engine.RecordBytes(1, Ms(5), 1000);
  engine.FlushAll();
  EXPECT_TRUE(engine.bytes_series().windows.empty());
  EXPECT_EQ(engine.total_bytes(), 1000);
}

TEST(StatsEngineTest, SpaceSavingHonorsErrorBoundOnParetoMix) {
  // Pareto-ish byte mix: flow i's traffic ~ 1/(i+1)^1.3, delivered in interleaved
  // chunks so light flows constantly contest the table - the worst case for a
  // space-saving counter. The documented bounds must hold for every tracked flow:
  //   estimate - overcount <= true bytes <= estimate, overcount <= total / K,
  // and any flow with true bytes > total / K is guaranteed a slot.
  const int kFlows = 200;
  const int kTopK = 8;
  StatsConfig config;
  config.top_k = kTopK;
  StatsEngine engine(config);
  std::vector<int64_t> truth(kFlows + 1, 0);
  std::vector<int64_t> chunk(kFlows + 1, 0);
  for (int f = 1; f <= kFlows; ++f) {
    engine.RegisterFlow(f);
    chunk[static_cast<size_t>(f)] =
        static_cast<int64_t>(2e6 / std::pow(static_cast<double>(f), 1.3)) + 1;
  }
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    // Interleave: a shuffled order each round, so promotions and evictions churn.
    std::vector<int> order(kFlows);
    for (int f = 0; f < kFlows; ++f) {
      order[static_cast<size_t>(f)] = f + 1;
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (int f : order) {
      engine.RecordBytes(f, 0, chunk[static_cast<size_t>(f)]);
      truth[static_cast<size_t>(f)] += chunk[static_cast<size_t>(f)];
    }
  }
  const int64_t total = engine.total_bytes();
  ASSERT_GT(total, 0);
  const int64_t bound = total / kTopK;
  int tracked = 0;
  for (int f = 1; f <= kFlows; ++f) {
    int64_t estimate = 0;
    int64_t overcount = 0;
    if (engine.HeavyEstimate(f, &estimate, &overcount)) {
      ++tracked;
      EXPECT_LE(truth[static_cast<size_t>(f)], estimate) << f;
      EXPECT_LE(estimate - overcount, truth[static_cast<size_t>(f)]) << f;
      EXPECT_LE(overcount, bound) << f;
    } else {
      // Not tracked => its true count cannot exceed the guarantee threshold.
      EXPECT_LE(truth[static_cast<size_t>(f)], bound) << f;
    }
  }
  EXPECT_EQ(tracked, kTopK);  // Plenty of traffic: the table is full.
  // The heaviest flow is certainly above total/K and must be tracked and retained -
  // keeps the guarantee check above (untracked => below bound) from being vacuous.
  ASSERT_GT(truth[1], bound);
  int64_t estimate = 0;
  int64_t overcount = 0;
  EXPECT_TRUE(engine.HeavyEstimate(1, &estimate, &overcount));
  const FlowStats* fs = engine.flow(1);
  ASSERT_NE(fs, nullptr);
  EXPECT_TRUE(fs->retained);
}

TEST(StatsEngineTest, UniformSampleIsSeededAndEngineIndependent) {
  StatsConfig config;
  config.top_k = 2;
  config.sample_every = 8;
  config.sample_seed = 99;
  // Two engines, different registration orders and different flow subsets: the
  // sampled set is a pure function of (seed, flow id), never of engine history.
  StatsEngine a(config);
  StatsEngine b(config);
  for (int f = 1; f <= 64; ++f) {
    a.RegisterFlow(f);
  }
  for (int f = 64; f >= 32; --f) {
    b.RegisterFlow(f);
  }
  int sampled = 0;
  for (int f = 32; f <= 64; ++f) {
    ASSERT_NE(a.flow(f), nullptr);
    ASSERT_NE(b.flow(f), nullptr);
    EXPECT_EQ(a.flow(f)->sampled, b.flow(f)->sampled) << f;
    sampled += a.flow(f)->sampled ? 1 : 0;
  }
  EXPECT_GT(sampled, 0);  // 33 flows at 1-in-8: a fully empty sample means a bug.

  // Sampled flows are pinned: heavy traffic elsewhere cannot evict their exact tier.
  int pinned = -1;
  for (int f = 1; f <= 64; ++f) {
    if (a.flow(f)->sampled) {
      pinned = f;
      break;
    }
  }
  ASSERT_GT(pinned, 0);
  a.RecordRtt(pinned, Ms(1), Ms(4));
  for (int round = 0; round < 100; ++round) {
    for (int f = 1; f <= 64; ++f) {
      if (f != pinned) {
        a.RecordBytes(f, 0, 1 << 20);
      }
    }
  }
  EXPECT_TRUE(a.flow(pinned)->retained);
  EXPECT_EQ(a.flow(pinned)->rtt_sketch.count(), 1);
}

// ---------------------------------------------------------------------------
// Sweep determinism with the streaming config (pool sizes 1/2/4).
// ---------------------------------------------------------------------------

sweep::ScenarioJob WindowedJob(scenario::QdiscKind qdisc, uint64_t seed) {
  sweep::ScenarioJob job;
  job.config.qdisc = qdisc;
  job.config.seed = seed;
  job.config.warmup = Ms(100);
  job.config.duration = Sec(1);
  job.config.stats.window = Ms(100);
  job.config.stats.top_k = 2;
  job.config.stats.sample_every = 4;
  for (NodeId id = 1; id <= 3; ++id) {
    scenario::StationSpec station;
    station.id = id;
    station.rate = id == 1 ? phy::WifiRate::k5_5Mbps : phy::WifiRate::k11Mbps;
    job.stations.push_back(station);
    scenario::FlowSpec flow;
    flow.client = id;
    flow.direction = scenario::Direction::kDownlink;
    flow.transport = scenario::Transport::kTcp;
    flow.model = scenario::TrafficModel::kTaskSequence;
    flow.task_bytes = 16 * 1024;  // Small tasks: dozens complete within the run.
    flow.task_count = 50;
    flow.task_gap = Ms(5);
    job.flows.push_back(flow);
  }
  return job;
}

// ---------------------------------------------------------------------------
// Cell readout under exact retention (the default StatsConfig).
// ---------------------------------------------------------------------------

TEST(StatsEngineWlanTest, CellSketchesEqualMergedPerFlowSketches) {
  // Every flow is retained, so each cell-wide sketch must equal the merge of the
  // per-flow sketches bit for bit: a merge adds int64 bucket counts and takes the
  // min and max, which no merge order can change.
  for (const scenario::QdiscKind qdisc :
       {scenario::QdiscKind::kFifo, scenario::QdiscKind::kTbr}) {
    scenario::ScenarioConfig config;
    config.qdisc = qdisc;
    config.warmup = Ms(200);
    config.duration = Sec(2);
    scenario::Wlan wlan(config);
    wlan.AddStation(1, phy::WifiRate::k11Mbps);
    wlan.AddStation(2, phy::WifiRate::k2Mbps);
    wlan.AddStation(3, phy::WifiRate::k11Mbps);
    wlan.AddBulkTcp(1, scenario::Direction::kUplink);
    wlan.AddBulkTcp(2, scenario::Direction::kDownlink);
    wlan.AddTaskSequence(3, scenario::Direction::kDownlink, 16 * 1024, 50);
    const scenario::Results r = wlan.Run();

    QuantileSketch rtt, queue_delay, task_latency;
    for (const scenario::FlowResult& fr : r.flows) {
      const FlowStats* fs = wlan.stats_engine().flow(fr.flow_id);
      ASSERT_NE(fs, nullptr);
      rtt.Merge(fs->rtt_sketch);
      queue_delay.Merge(fs->queue_delay_sketch);
      task_latency.Merge(fs->task_latency_sketch);
    }
    ASSERT_EQ(r.flows.size(), 3u);
    EXPECT_GT(rtt.count(), 0);
    EXPECT_GT(queue_delay.count(), 0);
    EXPECT_GT(task_latency.count(), 0);
    EXPECT_EQ(r.rtt_sketch, rtt);
    EXPECT_EQ(r.ap_queue_delay_sketch, queue_delay);
    EXPECT_EQ(r.task_latency_sketch, task_latency);
    EXPECT_EQ(r.rtt, scenario::LatencySummary::FromSketch(rtt));
    EXPECT_EQ(r.ap_queue_delay, scenario::LatencySummary::FromSketch(queue_delay));
    EXPECT_EQ(r.task_latency, scenario::LatencySummary::FromSketch(task_latency));
  }
}

TEST(StatsEngineSweepTest, WindowedSweepIsBitIdenticalAcrossPoolSizes) {
  std::vector<sweep::ScenarioJob> grid;
  grid.push_back(WindowedJob(scenario::QdiscKind::kFifo, 11));
  grid.push_back(WindowedJob(scenario::QdiscKind::kTbr, 12));
  grid.push_back(WindowedJob(scenario::QdiscKind::kDrr, 13));
  grid.push_back(WindowedJob(scenario::QdiscKind::kFifo, 14));

  auto run_grid = [&grid](int pool) {
    sweep::SweepRunner runner(pool);
    std::vector<std::function<scenario::Results()>> jobs;
    for (const sweep::ScenarioJob& job : grid) {
      jobs.push_back([&job] { return sweep::RunScenarioJob(job); });
    }
    return runner.Map(std::move(jobs));
  };

  const std::vector<scenario::Results> serial = run_grid(1);
  ASSERT_EQ(serial.size(), grid.size());
  for (const scenario::Results& r : serial) {
    // The streaming readout is live: series present, whole-run meters complete.
    EXPECT_FALSE(r.task_latency_series.windows.empty());
    EXPECT_FALSE(r.goodput_series.windows.empty());
    EXPECT_GT(r.task_latency_sketch.count(), 0);
  }
  for (int pool : {2, 4}) {
    EXPECT_EQ(run_grid(pool), serial) << "pool=" << pool;  // Bitwise, incl. series.
  }
}

}  // namespace
}  // namespace tbf::stats
