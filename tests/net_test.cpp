// Tests for the network plumbing: wired link serialization, the transport demux, wireless
// host queueing/pause, and AP-side forwarding between the wireless and wired segments.
#include <gtest/gtest.h>

#include "tbf/ap/access_point.h"
#include "tbf/net/demux.h"
#include "tbf/net/host.h"
#include "tbf/net/udp.h"
#include "tbf/net/wired.h"
#include "tbf/phy/channel.h"
#include "tbf/sim/simulator.h"

namespace tbf::net {
namespace {

PacketPool& TestPool() {
  static PacketPool pool;
  return pool;
}

PacketPtr MakePacket(NodeId src, NodeId dst, NodeId client, int flow, int bytes = 1500) {
  PacketPtr p = TestPool().Allocate();
  p->src = src;
  p->dst = dst;
  p->wlan_client = client;
  p->flow_id = flow;
  p->size_bytes = bytes;
  return p;
}

TEST(WiredLinkTest, DeliversWithSerializationAndDelay) {
  sim::Simulator sim;
  WiredLink link(&sim, Mbps(100), Us(500));
  std::vector<TimeNs> arrivals;
  link.SetTowardServer([&](PacketPtr) { arrivals.push_back(sim.Now()); });
  link.SendTowardServer(MakePacket(1, kServerId, 1, 1, 1500));
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 1u);
  // 1500 B at 100 Mbps = 120 us, plus 500 us propagation.
  EXPECT_EQ(arrivals[0], Us(620));
}

TEST(WiredLinkTest, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  WiredLink link(&sim, Mbps(100), Us(0));
  std::vector<TimeNs> arrivals;
  link.SetTowardServer([&](PacketPtr) { arrivals.push_back(sim.Now()); });
  for (int i = 0; i < 3; ++i) {
    link.SendTowardServer(MakePacket(1, kServerId, 1, 1, 1500));
  }
  sim.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[1] - arrivals[0], Us(120));
  EXPECT_EQ(arrivals[2] - arrivals[1], Us(120));
}

TEST(WiredLinkTest, DirectionsAreIndependent) {
  sim::Simulator sim;
  WiredLink link(&sim, Mbps(100), Us(100));
  int to_server = 0;
  int to_ap = 0;
  link.SetTowardServer([&](PacketPtr) { ++to_server; });
  link.SetTowardAp([&](PacketPtr) { ++to_ap; });
  link.SendTowardServer(MakePacket(1, kServerId, 1, 1));
  link.SendTowardAp(MakePacket(kServerId, 1, 1, 1));
  sim.RunUntilIdle();
  EXPECT_EQ(to_server, 1);
  EXPECT_EQ(to_ap, 1);
}

TEST(WiredLinkTest, QueueLimitDrops) {
  sim::Simulator sim;
  WiredLink link(&sim, Kbps(64), Ms(1), /*queue_limit=*/2);
  int delivered = 0;
  link.SetTowardServer([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    link.SendTowardServer(MakePacket(1, kServerId, 1, 1, 1500));
  }
  sim.RunUntilIdle();
  EXPECT_GT(link.drops(), 0);
  EXPECT_LT(delivered, 10);
}

TEST(DemuxTest, RoutesByNodeAndFlow) {
  struct Capture : PacketHandler {
    void HandlePacket(const PacketPtr&) override { ++count; }
    int count = 0;
  };
  Demux demux;
  Capture a;
  Capture b;
  demux.Register(1, 7, &a);
  demux.Register(2, 7, &b);
  demux.Deliver(1, MakePacket(kServerId, 1, 1, 7));
  demux.Deliver(2, MakePacket(kServerId, 2, 2, 7));
  demux.Deliver(1, MakePacket(kServerId, 1, 1, 99));  // Unknown flow: dropped silently.
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
}

TEST(UdpSinkTest, DeduplicatesBySequence) {
  UdpSink sink;
  auto p1 = MakeUdpPacket(TestPool(), kServerId, 1, 1, 1, 1500, /*seq=*/0, 0);
  auto p2 = MakeUdpPacket(TestPool(), kServerId, 1, 1, 1, 1500, /*seq=*/1, 0);
  sink.HandlePacket(p1);
  sink.HandlePacket(p1);  // MAC-level duplicate.
  sink.HandlePacket(p2);
  EXPECT_EQ(sink.packets(), 2);
  EXPECT_EQ(sink.payload_bytes(), 2 * (1500 - kIpUdpHeaderBytes));
}

TEST(UdpSourceTest, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  FlowAddress addr;
  addr.flow_id = 1;
  addr.sender = kServerId;
  addr.receiver = 1;
  addr.wlan_client = 1;
  int64_t sent_bytes = 0;
  UdpSource source(&sim, &TestPool(), addr,
                   [&](PacketPtr p) { sent_bytes += p->size_bytes; }, Mbps(2), 1500);
  source.Start();
  sim.RunUntil(Sec(5));
  EXPECT_NEAR(static_cast<double>(sent_bytes) * 8.0 / 5.0, 2e6, 0.05e6);
}

TEST(UdpSourceTest, BoundedTaskSendsExactPayload) {
  sim::Simulator sim;
  FlowAddress addr;
  addr.flow_id = 1;
  int sent = 0;
  int64_t payload = 0;
  const int64_t task = 7 * (1500 - kIpUdpHeaderBytes);
  UdpSource source(&sim, &TestPool(), addr,
                   [&](PacketPtr p) {
                     ++sent;
                     payload += p->PayloadBytes();
                   },
                   Mbps(10), 1500, task);
  source.Start();
  sim.RunUntil(Sec(5));
  EXPECT_EQ(sent, 7);
  EXPECT_EQ(payload, task);
}

TEST(UdpSourceTest, OddTaskSizeTrimsFinalDatagram) {
  sim::Simulator sim;
  FlowAddress addr;
  addr.flow_id = 1;
  int sent = 0;
  int64_t payload = 0;
  int last_size = 0;
  // Not a multiple of the 1472-byte payload: the old floor-division packet count
  // silently under-sent this task by 1000 bytes.
  const int64_t task = 2 * (1500 - kIpUdpHeaderBytes) + 1000;
  UdpSource source(&sim, &TestPool(), addr,
                   [&](PacketPtr p) {
                     ++sent;
                     payload += p->PayloadBytes();
                     last_size = p->size_bytes;
                   },
                   Mbps(10), 1500, task);
  source.Start();
  sim.RunUntil(Sec(5));
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(payload, task);
  EXPECT_EQ(last_size, 1000 + kIpUdpHeaderBytes);
}

TEST(UdpSourceTest, AddTaskResumesDrainedSource) {
  sim::Simulator sim;
  FlowAddress addr;
  addr.flow_id = 1;
  int64_t payload = 0;
  int64_t max_seq = -1;
  UdpSource source(&sim, &TestPool(), addr,
                   [&](PacketPtr p) {
                     payload += p->PayloadBytes();
                     max_seq = std::max(max_seq, p->seq);
                   },
                   Mbps(10), 1500, /*task_payload_bytes=*/500);
  source.Start();
  sim.RunUntil(Sec(1));
  EXPECT_EQ(payload, 500);
  source.AddTask(2000);  // Restart for the next flow in the sequence.
  sim.RunUntil(Sec(2));
  EXPECT_EQ(payload, 2500);
  EXPECT_EQ(max_seq + 1, source.packets_sent());  // Seq numbering continued.
}

// ---- Host + AP forwarding over a live medium -------------------------------------------

struct Cell {
  Cell() : rng(1), medium(&sim, phy::MixedModeTimings(), &loss, &rng) {}

  sim::Simulator sim;
  sim::Rng rng;
  phy::PerfectChannel loss;
  mac::Medium medium;
  Demux demux;
};

TEST(WirelessHostTest, UplinkPacketReachesServerThroughAp) {
  Cell cell;
  rateadapt::FixedRateController ap_rates(phy::WifiRate::k11Mbps);
  ap::AccessPoint ap(&cell.sim, &cell.medium, std::make_unique<ap::FifoQdisc>(), &ap_rates);
  WiredLink link(&cell.sim, Mbps(100), Us(500));
  ap.SetUplinkForward([&link](PacketPtr p) { link.SendTowardServer(std::move(p)); });
  WiredHost server(&cell.sim, kServerId, &cell.demux, &link);

  struct Capture : PacketHandler {
    void HandlePacket(const PacketPtr& p) override { last = p; }
    PacketPtr last;
  } capture;
  cell.demux.Register(kServerId, 5, &capture);

  WirelessHost host(&cell.sim, &cell.medium, 1,
                    std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                    &cell.demux);
  host.SendPacket(MakePacket(1, kServerId, 1, 5));
  cell.sim.RunUntil(Sec(1));

  ASSERT_NE(capture.last, nullptr);
  EXPECT_EQ(capture.last->src, 1);
  EXPECT_EQ(ap.forwarded_uplink(), 1);
}

TEST(WirelessHostTest, DownlinkPacketReachesClientThroughAp) {
  Cell cell;
  rateadapt::FixedRateController ap_rates(phy::WifiRate::k11Mbps);
  ap::AccessPoint ap(&cell.sim, &cell.medium, std::make_unique<ap::FifoQdisc>(), &ap_rates);
  WiredLink link(&cell.sim, Mbps(100), Us(500));
  ap.SetUplinkForward([&link](PacketPtr p) { link.SendTowardServer(std::move(p)); });
  link.SetTowardAp([&](PacketPtr p) { ap.EnqueueDownlink(std::move(p)); });
  WiredHost server(&cell.sim, kServerId, &cell.demux, &link);

  struct Capture : PacketHandler {
    void HandlePacket(const PacketPtr& p) override { ++count; }
    int count = 0;
  } capture;
  cell.demux.Register(1, 5, &capture);

  WirelessHost host(&cell.sim, &cell.medium, 1,
                    std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                    &cell.demux);
  server.SendPacket(MakePacket(kServerId, 1, 1, 5));
  cell.sim.RunUntil(Sec(1));
  EXPECT_EQ(capture.count, 1);
}

TEST(WirelessHostTest, QueueLimitDropsUplink) {
  Cell cell;
  WirelessHost host(&cell.sim, &cell.medium, 1,
                    std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                    &cell.demux, /*queue_limit=*/3);
  // No AP attached: packets sit in the queue. The first send is pulled straight into the
  // MAC's pending slot, so the queue holds the next three and the fifth is dropped.
  for (int i = 0; i < 5; ++i) {
    host.SendPacket(MakePacket(1, kServerId, 1, 5));
  }
  EXPECT_EQ(host.queued(), 3u);
  EXPECT_EQ(host.drops(), 1);
}

TEST(WirelessHostTest, PauseDefersUplink) {
  Cell cell;
  rateadapt::FixedRateController ap_rates(phy::WifiRate::k11Mbps);
  ap::AccessPoint ap(&cell.sim, &cell.medium, std::make_unique<ap::FifoQdisc>(), &ap_rates);
  WiredLink link(&cell.sim, Mbps(100), Us(100));
  ap.SetUplinkForward([&link](PacketPtr p) { link.SendTowardServer(std::move(p)); });
  WiredHost server(&cell.sim, kServerId, &cell.demux, &link);

  struct Capture : PacketHandler {
    void HandlePacket(const PacketPtr&) override { arrival = now ? *now : -1; }
    TimeNs arrival = -1;
    const TimeNs* now = nullptr;
  } capture;
  cell.demux.Register(kServerId, 5, &capture);

  WirelessHost host(&cell.sim, &cell.medium, 1,
                    std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                    &cell.demux);
  host.PauseUplinkUntil(Ms(50));
  host.SendPacket(MakePacket(1, kServerId, 1, 5));

  cell.sim.RunUntil(Ms(49));
  EXPECT_EQ(host.queued(), 1u);  // Still held.
  cell.sim.RunUntil(Ms(100));
  EXPECT_EQ(host.queued(), 0u);  // Released after the pause.
}

TEST(AccessPointTest, RelaysClientToClient) {
  Cell cell;
  rateadapt::FixedRateController ap_rates(phy::WifiRate::k11Mbps);
  ap::AccessPoint ap(&cell.sim, &cell.medium, std::make_unique<ap::FifoQdisc>(), &ap_rates);

  struct Capture : PacketHandler {
    void HandlePacket(const PacketPtr&) override { ++count; }
    int count = 0;
  } capture;
  cell.demux.Register(2, 5, &capture);

  WirelessHost sender(&cell.sim, &cell.medium, 1,
                      std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                      &cell.demux);
  WirelessHost receiver(&cell.sim, &cell.medium, 2,
                        std::make_unique<rateadapt::FixedRateController>(phy::WifiRate::k11Mbps),
                        &cell.demux);
  auto p = MakePacket(1, 2, 2, 5);  // Accounted to the destination client.
  sender.SendPacket(std::move(p));
  cell.sim.RunUntil(Sec(1));
  EXPECT_EQ(capture.count, 1);
}

TEST(SnrLossTest, LossRisesWithRateAtFixedSnr) {
  phy::SnrLossModel model;
  model.SetClientSnr(1, 9.0);
  const double at_2 = model.FrameLossProb(1, kApId, 1500, phy::WifiRate::k2Mbps);
  const double at_55 = model.FrameLossProb(1, kApId, 1500, phy::WifiRate::k5_5Mbps);
  const double at_11 = model.FrameLossProb(1, kApId, 1500, phy::WifiRate::k11Mbps);
  EXPECT_LT(at_2, at_55);
  EXPECT_LT(at_55, at_11);
  EXPECT_GT(at_11, 0.8);  // 3 dB below the 11 Mbps floor: effectively unusable.
  EXPECT_LT(at_2, 0.05);  // 4 dB above the 2 Mbps floor: clean.
}

TEST(SnrLossTest, UnknownClientIsLossless) {
  phy::SnrLossModel model;
  EXPECT_EQ(model.FrameLossProb(9, kApId, 1500, phy::WifiRate::k11Mbps), 0.0);
  EXPECT_FALSE(model.HasClient(9));
}

TEST(SnrLossTest, SmallFramesSurviveBetter) {
  phy::SnrLossModel model;
  model.SetClientSnr(1, 12.5);
  const double big = model.FrameLossProb(1, kApId, 1500, phy::WifiRate::k11Mbps);
  const double small = model.FrameLossProb(1, kApId, 100, phy::WifiRate::k11Mbps);
  EXPECT_LT(small, big);
}

}  // namespace
}  // namespace tbf::net
