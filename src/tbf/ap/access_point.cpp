#include "tbf/ap/access_point.h"

#include "tbf/util/logging.h"

namespace tbf::ap {

AccessPoint::AccessPoint(sim::Simulator* sim, mac::Medium* medium,
                         std::unique_ptr<Qdisc> qdisc, rateadapt::RateController* rates)
    : sim_(sim),
      qdisc_(std::move(qdisc)),
      rates_(rates),
      entity_(medium, kApId, this, this) {
  qdisc_->SetBacklogCallback([this] { entity_.NotifyBacklog(); });
  medium->AddObserver(this);
}

void AccessPoint::Associate(NodeId client) { qdisc_->OnAssociate(client); }

void AccessPoint::EnqueueDownlink(net::PacketPtr packet) {
  TBF_CHECK(packet->wlan_client != kInvalidNodeId) << "downlink packet without client";
  // A MAC duplicate delivery (client relay whose ACK was lost) can hand us a packet
  // that is still sitting in the qdisc from its first delivery; queue a clone then.
  packet = net::CloneIfQueued(std::move(packet));
  packet->ap_enqueued = sim_->Now();
  if (qdisc_->Enqueue(std::move(packet))) {
    entity_.NotifyBacklog();
  }
}

std::optional<mac::MacFrame> AccessPoint::NextFrame() {
  net::PacketPtr p = qdisc_->Dequeue();
  if (p == nullptr) {
    return std::nullopt;
  }
  if (queue_delay_fn_ && p->ap_enqueued >= 0 && p->flow_id >= 0) {
    queue_delay_fn_(p->flow_id, p->wlan_client, sim_->Now() - p->ap_enqueued);
  }
  const NodeId client = p->wlan_client;
  const NodeId dst = p->dst;
  return mac::MakeDataFrame(kApId, dst, std::move(p), rates_->CurrentRate(client));
}

void AccessPoint::OnTxComplete(const mac::MacFrame& frame, bool success, int attempts,
                               TimeNs airtime) {
  rates_->OnTxResult(frame.packet->wlan_client, success, attempts);
  qdisc_->OnTxComplete(frame, success, attempts, airtime);
}

void AccessPoint::OnFrameReceived(const mac::MacFrame& frame) {
  const net::PacketPtr& p = frame.packet;
  if (p == nullptr) {
    return;
  }
  if (p->dst == kApId) {
    // Locally addressed (management/test traffic): nothing above the MAC here.
    return;
  }
  if (uplink_forward_ && p->dst >= kServerId) {
    ++forwarded_uplink_;
    uplink_forward_(p);
    return;
  }
  // Client-to-client relaying through the AP: re-enqueue on the downlink.
  if (p->dst != p->src) {
    EnqueueDownlink(p);
  }
}

void AccessPoint::OnExchange(const mac::ExchangeRecord& record) {
  if (record.tx != kApId) {
    qdisc_->OnUplinkObserved(record);
  }
}

}  // namespace tbf::ap
