// The access point: DCF station kApId + pluggable transmit qdisc + wired backbone port.
//
// Forwarding model (infrastructure WLAN):
//   wired -> AP:   packets destined to a client are pushed into the qdisc (APPTXEVENT);
//   AP MAC ready:  the qdisc picks the next eligible packet (MACTXEVENT/HWTXEVENT);
//   client -> AP:  received uplink frames are forwarded onto the wired link;
//   completions:   downlink MAC completions and observed uplink exchanges are fed back to
//                  the qdisc (COMPLETEEVENT), which is all TBR needs to meter occupancy.
#ifndef TBF_AP_ACCESS_POINT_H_
#define TBF_AP_ACCESS_POINT_H_

#include <memory>

#include "tbf/ap/qdisc.h"
#include "tbf/mac/medium.h"
#include "tbf/net/demux.h"
#include "tbf/rateadapt/rate_controller.h"
#include "tbf/sim/simulator.h"

namespace tbf::ap {

class AccessPoint : public mac::FrameProvider, public mac::FrameSink, public mac::MediumObserver {
 public:
  // Reports, per packet leaving the qdisc toward the MAC, how long it waited inside
  // (enqueue-to-dequeue). Fires for every flow-tagged packet the AP transmits: downlink
  // data, and the returning acks of uplink TCP flows - the latter being exactly where
  // TBR's ack-withholding lever shows up as delay.
  using QueueDelayFn = std::function<void(int flow_id, NodeId client, TimeNs delay)>;

  AccessPoint(sim::Simulator* sim, mac::Medium* medium, std::unique_ptr<Qdisc> qdisc,
              rateadapt::RateController* rates);

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  // The uplink port: frames addressed beyond the cell (dst >= kServerId) are handed to
  // `fn` - a WiredLink toward the server in a single cell, a shard::ShardLink into the
  // core shard's Simulator in the sharded campus.
  using ForwardFn = std::function<void(net::PacketPtr)>;
  void SetUplinkForward(ForwardFn fn) { uplink_forward_ = std::move(fn); }

  void Associate(NodeId client);

  // Entry point for downlink packets (from the wired link or generated locally).
  void EnqueueDownlink(net::PacketPtr packet);

  // mac::FrameProvider.
  std::optional<mac::MacFrame> NextFrame() override;
  void OnTxComplete(const mac::MacFrame& frame, bool success, int attempts,
                    TimeNs airtime) override;

  // mac::FrameSink - uplink receptions.
  void OnFrameReceived(const mac::MacFrame& frame) override;

  // mac::MediumObserver - the driver's view of channel exchanges (uplink accounting).
  void OnExchange(const mac::ExchangeRecord& record) override;

  void SetQueueDelayFn(QueueDelayFn fn) { queue_delay_fn_ = std::move(fn); }

  Qdisc& qdisc() { return *qdisc_; }
  mac::DcfEntity& entity() { return entity_; }
  int64_t downlink_drops() const { return qdisc_->drops(); }
  int64_t forwarded_uplink() const { return forwarded_uplink_; }

 private:
  sim::Simulator* sim_;
  std::unique_ptr<Qdisc> qdisc_;
  QueueDelayFn queue_delay_fn_;
  rateadapt::RateController* rates_;
  ForwardFn uplink_forward_;
  int64_t forwarded_uplink_ = 0;
  mac::DcfEntity entity_;
};

}  // namespace tbf::ap

#endif  // TBF_AP_ACCESS_POINT_H_
