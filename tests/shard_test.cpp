// Sharded campus simulation: validation of the lookahead prerequisites, bit-identity
// of CampusResults across shard-thread counts and repeated runs (the conservative
// protocol's determinism bar), cross-shard delivery ordering through ShardLink
// mailboxes, lookahead-horizon window accounting, and pool isolation. This binary is
// part of the TSan CTest payload (-DTBF_SANITIZE=thread): shards advance on a real
// thread pool here, so any shared mutable state between them becomes a hard failure.
#include "tbf/shard/campus_sim.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tbf/shard/mailbox.h"
#include "tbf/shard/shard_link.h"

namespace tbf {
namespace {

using scenario::BssSpec;
using scenario::CampusConfig;
using scenario::CampusResults;
using scenario::Direction;
using scenario::FlowSpec;
using scenario::QdiscKind;
using scenario::StationSpec;
using scenario::TrafficModel;
using scenario::Transport;
using shard::CampusSim;

BssSpec MakeBss(int stations, Direction dir, Transport transport) {
  BssSpec bss;
  for (NodeId id = 1; id <= stations; ++id) {
    StationSpec station;
    station.id = id;
    station.rate = id % 2 == 0 ? phy::WifiRate::k11Mbps : phy::WifiRate::k2Mbps;
    bss.stations.push_back(station);
    FlowSpec flow;
    flow.client = id;
    flow.direction = dir;
    flow.transport = transport;
    bss.flows.push_back(flow);
  }
  return bss;
}

CampusConfig SmallCampusConfig(QdiscKind qdisc = QdiscKind::kFifo) {
  CampusConfig config;
  config.cell.qdisc = qdisc;
  config.cell.seed = 7;
  config.cell.warmup = Ms(200);
  config.cell.duration = Sec(1);
  return config;
}

CampusResults RunSmallCampus(int threads, QdiscKind qdisc = QdiscKind::kFifo,
                             core::TbrMode mode = core::TbrMode::kStock) {
  CampusConfig config = SmallCampusConfig(qdisc);
  config.cell.tbr.mode = mode;
  CampusSim campus(config, threads);
  campus.AddBss(MakeBss(2, Direction::kUplink, Transport::kTcp));
  campus.AddBss(MakeBss(2, Direction::kDownlink, Transport::kTcp));
  campus.AddBss(MakeBss(2, Direction::kDownlink, Transport::kUdp));
  return campus.Run();
}

TEST(ShardValidationTest, RejectsZeroLatencyBackbone) {
  // Zero one-way latency means zero lookahead: the conservative window collapses and
  // shards could never run ahead of each other. Validation must reject it up front.
  CampusConfig config = SmallCampusConfig();
  config.backbone_delay = 0;
  CampusSim campus(config, 1);
  campus.AddBss(MakeBss(1, Direction::kUplink, Transport::kTcp));
  EXPECT_THROW(campus.Run(), scenario::ScenarioError);

  CampusConfig per_bss = SmallCampusConfig();
  CampusSim campus2(per_bss, 1);
  BssSpec bss = MakeBss(1, Direction::kUplink, Transport::kTcp);
  bss.backbone_delay = 0;
  campus2.AddBss(bss);
  EXPECT_THROW(campus2.Run(), scenario::ScenarioError);
}

TEST(ShardValidationTest, RejectsNonBulkUdpFlows) {
  // Finite UDP task chains complete at the sink, which in a campus lives in the
  // opposite shard from the source; restarting the source from there would need a
  // cross-shard control channel the conservative protocol does not provide.
  CampusSim campus(SmallCampusConfig(), 1);
  BssSpec bss = MakeBss(1, Direction::kUplink, Transport::kUdp);
  bss.flows[0].model = TrafficModel::kTaskSequence;
  bss.flows[0].task_bytes = 100000;
  bss.flows[0].task_count = 3;
  campus.AddBss(bss);
  EXPECT_THROW(campus.Run(), scenario::ScenarioError);
}

TEST(ShardValidationTest, RejectsEmptyCampus) {
  CampusSim campus(SmallCampusConfig(), 1);
  EXPECT_THROW(campus.Run(), scenario::ScenarioError);
}

TEST(ShardCampusTest, BitIdenticalAcrossThreadCounts) {
  // The determinism bar: the whole CampusResults readout - every flow's bytes, every
  // latency quantile, every MAC counter - must match bit for bit whether shards run
  // serially or on 2 or 4 pool threads.
  const CampusResults serial = RunSmallCampus(1);
  const CampusResults two = RunSmallCampus(2);
  const CampusResults four = RunSmallCampus(4);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
  EXPECT_GT(serial.aggregate_bps, 0.0);
  EXPECT_GT(serial.cross_shard_packets, 0);
}

TEST(ShardCampusTest, BitIdenticalUnderTbr) {
  const CampusResults serial = RunSmallCampus(1, QdiscKind::kTbr);
  const CampusResults four = RunSmallCampus(4, QdiscKind::kTbr);
  EXPECT_EQ(serial, four);
  EXPECT_GT(serial.aggregate_bps, 0.0);
}

TEST(ShardCampusTest, BitIdenticalUnderAdaptiveTbrFamily) {
  // Fast-EWMA TBR adds per-mode state (the 50 ms demand timer); it must hold the same
  // cross-thread determinism bar as stock TBR.
  constexpr core::TbrMode kFast = core::TbrMode::kFastEwma;
  const CampusResults serial = RunSmallCampus(1, QdiscKind::kTbr, kFast);
  const CampusResults four = RunSmallCampus(4, QdiscKind::kTbr, kFast);
  EXPECT_EQ(serial, four);
  EXPECT_GT(serial.aggregate_bps, 0.0);
}

TEST(ShardCampusTest, WindowedMetrologyBitIdenticalAcrossThreadCounts) {
  // Streaming metrology config: windowed series, sampled retention. The per-window
  // merge tree (cells -> campus, sealed at barriers in fixed order) must keep the
  // full readout - including every WindowStat and per-flow exact flag - bit-identical
  // for any shard-thread count.
  auto run = [](int threads) {
    CampusConfig config = SmallCampusConfig(QdiscKind::kTbr);
    config.cell.stats.window = Ms(100);
    config.cell.stats.top_k = 3;
    config.cell.stats.sample_every = 2;
    CampusSim campus(config, threads);
    campus.AddBss(MakeBss(2, Direction::kUplink, Transport::kTcp));
    campus.AddBss(MakeBss(2, Direction::kDownlink, Transport::kTcp));
    campus.AddBss(MakeBss(2, Direction::kDownlink, Transport::kUdp));
    return campus.Run();
  };
  const CampusResults serial = run(1);
  EXPECT_FALSE(serial.rtt_series.windows.empty());
  EXPECT_FALSE(serial.ap_queue_delay_series.windows.empty());
  EXPECT_GT(serial.rtt_sketch.count(), 0);  // Whole-run meters complete when windowed.
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run(threads), serial) << threads;
  }
}

TEST(ShardCampusTest, CampusSketchesEqualMergedCellSketches) {
  // Under exact retention (the default StatsConfig) the campus-wide latency sketches
  // must equal the merge of the per-cell sketches bit for bit: sketch merges add int64
  // bucket counts, so neither the merge order nor the thread count can change them.
  for (const int threads : {1, 4}) {
    CampusSim campus(SmallCampusConfig(), threads);
    for (int cell = 0; cell < 3; ++cell) {
      BssSpec bss = MakeBss(3, Direction::kDownlink, Transport::kTcp);
      bss.flows[0].direction = Direction::kUplink;
      bss.flows[2].model = TrafficModel::kTaskSequence;
      bss.flows[2].task_bytes = 16 * 1024;
      bss.flows[2].task_count = 50;
      campus.AddBss(bss);
    }
    const CampusResults results = campus.Run();
    ASSERT_EQ(results.cells.size(), 3u);
    stats::QuantileSketch rtt, queue_delay, task_latency;
    for (const scenario::Results& cell : results.cells) {
      rtt.Merge(cell.rtt_sketch);
      queue_delay.Merge(cell.ap_queue_delay_sketch);
      task_latency.Merge(cell.task_latency_sketch);
    }
    EXPECT_GT(rtt.count(), 0) << threads;
    EXPECT_GT(queue_delay.count(), 0) << threads;
    EXPECT_GT(task_latency.count(), 0) << threads;
    EXPECT_EQ(results.rtt_sketch, rtt) << threads;
    EXPECT_EQ(results.ap_queue_delay_sketch, queue_delay) << threads;
    EXPECT_EQ(results.task_latency_sketch, task_latency) << threads;
  }
}

TEST(ShardCampusTest, SkewedCampusBitIdenticalAcrossSliceCuts) {
  // One saturated 16-station cell among 1-station cells: the pool re-cuts its
  // event-balanced slices every 256 windows, so the heavy cell changes threads during
  // the run. 3 threads splits the shards unevenly; 64 exercises the clamp to the shard
  // count. A 3 ms lookahead does not divide the 100 ms stats window, so barriers cross
  // stats-window boundaries mid-window and most barriers have nothing to seal.
  auto run = [](int threads) {
    CampusConfig config = SmallCampusConfig(QdiscKind::kTbr);
    config.backbone_delay = Ms(3);
    config.cell.stats.window = Ms(100);
    config.cell.stats.top_k = 3;
    config.cell.stats.sample_every = 2;
    CampusSim campus(config, threads);
    for (int i = 0; i < 7; ++i) {
      if (i == 2) {
        campus.AddBss(MakeBss(16, Direction::kUplink, Transport::kTcp));
        continue;
      }
      BssSpec light = MakeBss(1, Direction::kDownlink, Transport::kTcp);
      light.flows[0].app_limit_bps = 100000;
      campus.AddBss(light);
    }
    return campus.Run();
  };
  const CampusResults serial = run(1);
  EXPECT_GT(serial.windows, 256);
  EXPECT_FALSE(serial.goodput_series.windows.empty());
  EXPECT_GT(serial.cells[2].mac_exchanges, 4 * serial.cells[0].mac_exchanges);
  for (const int threads : {2, 3, 4, 64}) {
    EXPECT_EQ(run(threads), serial) << threads;
  }
}

TEST(ShardDeterminismTest, ThreadScheduleStability) {
  // Repeated multi-threaded runs exercise different OS thread schedules; the barrier
  // protocol must make every one of them produce the same bits.
  const CampusResults first = RunSmallCampus(4);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(first, RunSmallCampus(4));
  }
}

TEST(ShardCampusTest, LookaheadHorizonWindows) {
  // lookahead = min one-way backbone latency across BSSes; windows = ceil(total
  // simulated time / lookahead) when every window spans a full horizon.
  CampusConfig config = SmallCampusConfig();
  config.backbone_delay = Ms(1);
  CampusSim campus(config, 1);
  campus.AddBss(MakeBss(1, Direction::kUplink, Transport::kTcp));
  BssSpec slow = MakeBss(1, Direction::kDownlink, Transport::kTcp);
  slow.backbone_delay = Ms(5);  // Slower link must not widen the lookahead.
  campus.AddBss(slow);
  const CampusResults results = campus.Run();
  EXPECT_EQ(campus.lookahead(), Ms(1));
  const TimeNs total = config.cell.warmup + config.cell.duration;
  EXPECT_EQ(results.windows, (total + Ms(1) - 1) / Ms(1));
  EXPECT_EQ(results.lookahead, Ms(1));
}

TEST(ShardCampusTest, SingleBssMatchesAcrossShardThreads) {
  // Degenerate campus (one BSS + core) still runs the full mailbox protocol.
  CampusConfig config = SmallCampusConfig();
  for (const int threads : {1, 2}) {
    CampusSim campus(config, threads);
    campus.AddBss(MakeBss(3, Direction::kUplink, Transport::kTcp));
    const CampusResults results = campus.Run();
    EXPECT_EQ(results.cells.size(), 1u);
    EXPECT_GT(results.cells[0].aggregate_bps, 0.0);
    EXPECT_EQ(results.cells[0].flows.size(), 3u);
  }
}

TEST(ShardCampusTest, UdpTaskBytesConserved) {
  // A finite bulk UDP downlink delivers exactly its task payload through the
  // core -> cell mailbox crossing (deep copy must preserve every transport field).
  CampusConfig config = SmallCampusConfig();
  config.cell.duration = Sec(2);
  CampusSim campus(config, 2);
  BssSpec bss = MakeBss(1, Direction::kDownlink, Transport::kUdp);
  bss.flows[0].task_bytes = 200000;
  bss.flows[0].udp_rate = Mbps(1);
  campus.AddBss(bss);
  const CampusResults results = campus.Run();
  ASSERT_EQ(results.cells[0].flows.size(), 1u);
  EXPECT_EQ(results.tasks_completed, 1);
  EXPECT_EQ(results.cells[0].flows[0].task_completions.size(), 1u);
}

// The station and TBR knobs a campus cell reads, each one switchable so a test can
// show it acts: ARF over the SNR model, fixed PER, a short host queue, the client
// agent and retry-informed charging.
struct CellKnobs {
  bool arf = true;
  double snr_db = 12.0;  // At 12 dB most 11 Mbps frames fail; 5.5 Mbps gets through.
  double per = 0.3;
  size_t queue_limit = 3;  // Below TCP's 44-segment window, so the host queue drops.
  bool client_agent = true;
  bool use_retry_info = true;
};

StationSpec KnobStation(NodeId id, phy::WifiRate rate) {
  StationSpec station;
  station.id = id;
  station.rate = rate;
  return station;
}

FlowSpec KnobFlow(NodeId client, Direction dir, Transport transport) {
  FlowSpec flow;
  flow.client = client;
  flow.direction = dir;
  flow.transport = transport;
  flow.udp_rate = Mbps(9);
  return flow;
}

// Three cells, so four threads give every shard its own slice:
//  0: three 9 Mbit/s UDP uplinks, one on the 1 Mbps rung (the client agent's case);
//  1: TCP both ways - ARF over SNR downlink (1), PER uplink (2), short-queue uplink
//     (3), a clean downlink (4);
//  2: ARF over SNR uplink plus a PER station's bulk UDP uplink.
CampusResults RunKnobCampus(int threads, QdiscKind qdisc, const CellKnobs& knobs) {
  CampusConfig config = SmallCampusConfig(qdisc);
  config.cell.duration = Sec(2);
  config.cell.tbr.client_agent = knobs.client_agent;
  config.cell.tbr.use_retry_info = knobs.use_retry_info;
  CampusSim campus(config, threads);

  BssSpec agent;
  for (NodeId id = 1; id <= 3; ++id) {
    agent.stations.push_back(
        KnobStation(id, id == 3 ? phy::WifiRate::k1Mbps : phy::WifiRate::k11Mbps));
    agent.flows.push_back(KnobFlow(id, Direction::kUplink, Transport::kUdp));
  }
  campus.AddBss(agent);

  BssSpec lossy;
  StationSpec adaptive = KnobStation(1, phy::WifiRate::k11Mbps);
  adaptive.arf = knobs.arf;
  adaptive.snr_db = knobs.snr_db;
  StationSpec per = KnobStation(2, phy::WifiRate::k11Mbps);
  per.per = knobs.per;
  StationSpec short_queue = KnobStation(3, phy::WifiRate::k11Mbps);
  short_queue.queue_limit = knobs.queue_limit;
  lossy.stations = {adaptive, per, short_queue, KnobStation(4, phy::WifiRate::k11Mbps)};
  lossy.flows = {KnobFlow(1, Direction::kDownlink, Transport::kTcp),
                 KnobFlow(2, Direction::kUplink, Transport::kTcp),
                 KnobFlow(3, Direction::kUplink, Transport::kTcp),
                 KnobFlow(4, Direction::kDownlink, Transport::kTcp)};
  campus.AddBss(lossy);

  BssSpec mixed;
  StationSpec adaptive_up = KnobStation(1, phy::WifiRate::k11Mbps);
  adaptive_up.arf = knobs.arf;
  adaptive_up.snr_db = knobs.snr_db;
  StationSpec per_udp = KnobStation(2, phy::WifiRate::k5_5Mbps);
  per_udp.per = knobs.per;
  mixed.stations = {adaptive_up, per_udp};
  mixed.flows = {KnobFlow(1, Direction::kUplink, Transport::kTcp),
                 KnobFlow(2, Direction::kUplink, Transport::kUdp)};
  campus.AddBss(mixed);
  return campus.Run();
}

TEST(ShardCampusTest, StationAndTbrKnobsBitIdenticalAndActive) {
  // Every station and TBR knob a campus cell reads, under TBR and under the OAR-style
  // burst baseline (which reads the AP's per-client rate): the readout must match bit
  // for bit across shard-thread counts, and switching each knob off must show it was
  // doing something.
  const CellKnobs on;
  for (const QdiscKind qdisc : {QdiscKind::kTbr, QdiscKind::kOarBurst}) {
    const CampusResults serial = RunKnobCampus(1, qdisc, on);
    for (const int threads : {2, 3, 4}) {
      EXPECT_EQ(RunKnobCampus(threads, qdisc, on), serial)
          << threads << " threads, qdisc " << static_cast<int>(qdisc);
    }
  }
  const CampusResults tbr = RunKnobCampus(1, QdiscKind::kTbr, on);
  const scenario::Results& lossy = tbr.cells[1];

  // ARF over SNR: from 11 Mbps the AP's downlink to station 1 (cell 1) and station 1's
  // own uplink (cell 2) step down to a rung that gets through; pinned at 11 Mbps they
  // crawl, and without the SNR model they would not lose anything at all.
  CellKnobs pinned = on;
  pinned.arf = false;
  const CampusResults no_arf = RunKnobCampus(1, QdiscKind::kTbr, pinned);
  EXPECT_GT(lossy.goodput_bps.at(1), 2 * no_arf.cells[1].goodput_bps.at(1));
  EXPECT_GT(tbr.cells[2].goodput_bps.at(1), 2 * no_arf.cells[2].goodput_bps.at(1));
  CellKnobs no_snr = on;
  no_snr.snr_db = 0.0;
  const CampusResults clear = RunKnobCampus(1, QdiscKind::kTbr, no_snr);
  EXPECT_LT(lossy.goodput_bps.at(1), 0.7 * clear.cells[1].goodput_bps.at(1));

  // Fixed PER costs the lossy stations goodput.
  CellKnobs clean = on;
  clean.per = 0.0;
  const CampusResults no_per = RunKnobCampus(1, QdiscKind::kTbr, clean);
  EXPECT_LT(lossy.goodput_bps.at(2), no_per.cells[1].goodput_bps.at(2));
  EXPECT_LT(tbr.cells[2].goodput_bps.at(2), no_per.cells[2].goodput_bps.at(2));

  // The short host queue drops TCP segments the default queue would hold.
  CellKnobs deep = on;
  deep.queue_limit = 50;
  const CampusResults deep_queue = RunKnobCampus(1, QdiscKind::kTbr, deep);
  EXPECT_GT(lossy.flows[2].retransmits, deep_queue.cells[1].flows[2].retransmits);

  // The client agent pauses the 1 Mbps UDP uplink, which lifts its cell's aggregate.
  CellKnobs no_agent = on;
  no_agent.client_agent = false;
  const CampusResults unpaused = RunKnobCampus(1, QdiscKind::kTbr, no_agent);
  EXPECT_GT(tbr.cells[0].aggregate_bps, 1.5 * unpaused.cells[0].aggregate_bps);

  // Retry-informed charging changes what TBR charges the lossy stations.
  CellKnobs no_retry = on;
  no_retry.use_retry_info = false;
  EXPECT_NE(RunKnobCampus(1, QdiscKind::kTbr, no_retry).cells[1], lossy);
}

TEST(ShardMailboxTest, RecordsRoundTripAllTransportFields) {
  net::PacketPool pool;
  net::PacketPtr p = pool.Allocate();
  p->src = 3;
  p->dst = kServerId;
  p->wlan_client = 3;
  p->flow_id = 9;
  p->proto = net::Proto::kTcpData;
  p->size_bytes = 1500;
  p->seq = 14600;
  p->end_seq = 16060;
  p->ack = 42;
  p->created = Us(17);
  p->ap_enqueued = Us(99);  // Must NOT cross: re-stamped at the destination AP.

  const shard::PacketRecord r = shard::MakeRecord(*p, Ms(3));
  EXPECT_EQ(r.arrival, Ms(3));

  net::PacketPool other;
  net::PacketPtr copy = shard::Materialize(r, &other);
  EXPECT_EQ(copy->src, 3);
  EXPECT_EQ(copy->dst, kServerId);
  EXPECT_EQ(copy->wlan_client, 3);
  EXPECT_EQ(copy->flow_id, 9);
  EXPECT_EQ(copy->proto, net::Proto::kTcpData);
  EXPECT_EQ(copy->size_bytes, 1500);
  EXPECT_EQ(copy->seq, 14600);
  EXPECT_EQ(copy->end_seq, 16060);
  EXPECT_EQ(copy->ack, 42);
  EXPECT_EQ(copy->created, Us(17));
  EXPECT_EQ(copy->ap_enqueued, -1);
}

TEST(ShardMailboxTest, ShardLinkPreservesFifoOrderAndArrivalTimes) {
  sim::Simulator sim;
  net::PacketPool pool;
  shard::Mailbox out;
  // 1 Mbps, 1 ms one-way: a 1250-byte packet serializes in exactly 10 ms.
  shard::ShardLink link(&sim, &out, 1000000, Ms(1), 4);

  for (int i = 0; i < 3; ++i) {
    net::PacketPtr p = pool.Allocate();
    p->size_bytes = 1250;
    p->seq = i;
    link.Send(std::move(p));
  }
  sim.RunUntil(Ms(100));

  ASSERT_EQ(out.pending().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(out.pending()[i].seq, i);
    // Packet i finishes serializing at (i+1)*10ms and lands delay later.
    EXPECT_EQ(out.pending()[i].arrival, Ms(10) * (i + 1) + Ms(1));
  }
  EXPECT_EQ(link.sent(), 3);
  EXPECT_EQ(link.drops(), 0);
}

TEST(ShardMailboxTest, ShardLinkDropsBeyondQueueLimit) {
  sim::Simulator sim;
  net::PacketPool pool;
  shard::Mailbox out;
  shard::ShardLink link(&sim, &out, 1000000, Ms(1), 2);
  for (int i = 0; i < 6; ++i) {  // 1 transmitting + 2 queued + 3 dropped.
    net::PacketPtr p = pool.Allocate();
    p->size_bytes = 1250;
    link.Send(std::move(p));
  }
  sim.RunUntil(Sec(1));
  EXPECT_EQ(link.sent(), 3);
  EXPECT_EQ(link.drops(), 3);
}

TEST(ShardMailboxTest, ArrivalsAlwaysClearTheLookaheadHorizon) {
  // The conservative invariant: a send inside window (t, t+W] posts an arrival
  // strictly after the *next* barrier, because arrival = send + tx + delay and
  // delay >= W. Checked here directly at the link level.
  sim::Simulator sim;
  net::PacketPool pool;
  shard::Mailbox out;
  const TimeNs kDelay = Us(500);
  shard::ShardLink link(&sim, &out, Mbps(1000), kDelay, 64);
  const TimeNs window_end = Ms(2);
  sim.ScheduleAt(window_end, [&] {
    net::PacketPtr p = pool.Allocate();
    p->size_bytes = 40;  // Worst case: minimal serialization time.
    link.Send(std::move(p));
  });
  sim.RunUntil(window_end);
  ASSERT_EQ(out.pending().size(), 1u);
  EXPECT_GT(out.pending()[0].arrival, window_end + kDelay - 1);
  EXPECT_GT(out.pending()[0].arrival, window_end);  // Next barrier-safe.
}

TEST(ShardPoolIsolationTest, ConcurrentCampusesShareNothing) {
  // Two campuses on their own shard pools at once: per-shard pools and rngs must be
  // fully private (TSan enforces the claim in the sanitizer configuration).
  CampusResults a;
  CampusResults b;
  std::thread t1([&a] { a = RunSmallCampus(2); });
  std::thread t2([&b] { b = RunSmallCampus(2); });
  t1.join();
  t2.join();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tbf
