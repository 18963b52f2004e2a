// Access-point queueing disciplines.
//
// A Qdisc sits exactly where an AP driver's transmit queue sits: the network layer pushes
// packets in (APPTXEVENT in the paper's terminology), the MAC pulls packets out when the
// hardware is ready (MACTXEVENT), and completion events flow back (COMPLETEEVENT). TBR is
// implemented as one of these (src/tbf/core/tbr.h); the baselines here are the stock
// kernel-interface FIFO the paper calls "Exp-Normal", a per-node round-robin, and a
// deficit-round-robin byte-fair scheduler.
//
// Per-client state is dense: stations are small dense NodeIds, so each qdisc keeps its
// client queues in a flat vector in association order (the round-robin order) plus a
// NodeId -> slot index vector - enqueue and dequeue are O(1) indexed loads with no tree
// walk, and the queues themselves are intrusive PacketFifo lists of pooled packets (no
// deque churn, no refcount traffic on push/pop).
#ifndef TBF_AP_QDISC_H_
#define TBF_AP_QDISC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tbf/mac/medium.h"
#include "tbf/net/packet.h"
#include "tbf/util/units.h"

namespace tbf::ap {

// AP buffer sizes, the paper's: the stock kernel interface queue of its Exp-Normal AP,
// and each client's drop-tail limit in the per-client qdiscs (TBR's setup splits the
// stock buffer across clients).
inline constexpr size_t kFifoLimit = 110;
inline constexpr size_t kPerQueueLimit = 50;

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  // A client joined the WLAN (paper: ASSOCIATEEVENT).
  virtual void OnAssociate(NodeId client) { (void)client; }

  // Network layer hands the AP a packet destined to packet->wlan_client.
  // Returns false when the packet was dropped (queue full).
  virtual bool Enqueue(net::PacketPtr packet) = 0;

  // MAC is ready for the next frame. Returns nullptr when nothing is eligible
  // (possibly even though packets are queued - that is TBR's regulation lever).
  virtual net::PacketPtr Dequeue() = 0;

  // True when Dequeue() would return a packet right now.
  virtual bool HasEligible() const = 0;

  virtual size_t QueuedPackets() const = 0;

  // Downlink MAC completion for a frame previously dequeued from this qdisc.
  virtual void OnTxComplete(const mac::MacFrame& frame, bool success, int attempts,
                            TimeNs airtime) {
    (void)frame;
    (void)success;
    (void)attempts;
    (void)airtime;
  }

  // The AP observed an uplink exchange on the medium (driver rx-complete path).
  virtual void OnUplinkObserved(const mac::ExchangeRecord& record) { (void)record; }

  // The qdisc calls this when frames may have become eligible asynchronously
  // (e.g. a token refill); the AP wires it to its MAC backlog notification.
  void SetBacklogCallback(std::function<void()> cb) { backlog_cb_ = std::move(cb); }

  int64_t drops() const { return drops_; }

 protected:
  void NotifyBacklog() {
    if (backlog_cb_) {
      backlog_cb_();
    }
  }

  void CountDrop() { ++drops_; }

 private:
  std::function<void()> backlog_cb_;
  int64_t drops_ = 0;
};

// NodeId -> dense slot map shared by the per-client qdiscs: slots are handed out in
// association order (which is also each qdisc's round-robin order), lookups are a
// bounds check plus an indexed load.
class ClientSlotMap {
 public:
  // Returns the client's slot, or -1 when it has none yet.
  int32_t SlotOf(NodeId client) const {
    return client >= 0 && static_cast<size_t>(client) < slot_of_.size()
               ? slot_of_[static_cast<size_t>(client)]
               : -1;
  }

  // Returns the client's slot, assigning the next dense slot on first sight.
  // `created` reports whether this call associated the client.
  int32_t GetOrAdd(NodeId client, bool* created = nullptr);

  size_t size() const { return count_; }

 private:
  std::vector<int32_t> slot_of_;
  size_t count_ = 0;
};

// Single drop-tail FIFO - the kernel interface queue of a stock AP.
class FifoQdisc : public Qdisc {
 public:
  explicit FifoQdisc(size_t limit = kFifoLimit) : limit_(limit) {}

  bool Enqueue(net::PacketPtr packet) override;
  net::PacketPtr Dequeue() override;
  bool HasEligible() const override { return !queue_.empty(); }
  size_t QueuedPackets() const override { return queue_.size(); }

 private:
  size_t limit_;
  net::PacketFifo queue_;
};

// Per-client drop-tail FIFOs served in round-robin packet order - the "AP queuing scheme
// [that] usually transmits to wireless clients in a round-robin manner" (paper 2.4).
class RoundRobinQdisc : public Qdisc {
 public:
  explicit RoundRobinQdisc(size_t per_queue_limit = kPerQueueLimit)
      : limit_(per_queue_limit) {}

  void OnAssociate(NodeId client) override;
  bool Enqueue(net::PacketPtr packet) override;
  net::PacketPtr Dequeue() override;
  bool HasEligible() const override;
  size_t QueuedPackets() const override;

 private:
  // Slot for `client`, growing the queue table on first sight (association order).
  int32_t SlotFor(NodeId client);

  size_t limit_;
  ClientSlotMap slots_;
  std::vector<net::PacketFifo> queues_;  // Association order.
  size_t next_ = 0;
};

// Deficit Round Robin (Shreedhar & Varghese) - byte-granular throughput fairness across
// clients; the strongest *throughput-based* fairness baseline for mixed packet sizes.
class DrrQdisc : public Qdisc {
 public:
  explicit DrrQdisc(size_t per_queue_limit = kPerQueueLimit, int64_t quantum_bytes = 1500)
      : limit_(per_queue_limit), quantum_(quantum_bytes) {}

  void OnAssociate(NodeId client) override;
  bool Enqueue(net::PacketPtr packet) override;
  net::PacketPtr Dequeue() override;
  bool HasEligible() const override;
  size_t QueuedPackets() const override;

 private:
  struct ClientQueue {
    net::PacketFifo packets;
    int64_t deficit = 0;
    // Whether this visit's quantum has been granted (reset when the round pointer
    // leaves the queue) - one quantum per visit, not per Dequeue() call.
    bool granted = false;
  };

  int32_t SlotFor(NodeId client);
  void Advance();

  size_t limit_;
  int64_t quantum_;
  ClientSlotMap slots_;
  std::vector<ClientQueue> queues_;  // Association order.
  size_t next_ = 0;
};

// OAR-style burst round robin (Sadeghi et al., MOBICOM'02 - the paper's related work).
// Each visit grants a client a *burst* of ceil(rate / base_rate) packets, so a node at
// 11 Mbps sends ~11 packets per visit of a 1 Mbps node's single packet - approximating
// time fairness through packet counts instead of channel-time tokens. Needs the per-client
// rate (supplied by a callback), no clock, and no occupancy accounting; its weakness is
// that the approximation holds only when frame sizes are uniform and rates are exact
// multiples, which the comparison bench quantifies.
class BurstRoundRobinQdisc : public Qdisc {
 public:
  using RateLookup = std::function<int64_t(NodeId)>;  // bits/s of the client's link.

  explicit BurstRoundRobinQdisc(RateLookup rate_lookup, int64_t base_rate_bps = 1'000'000,
                                size_t per_queue_limit = kPerQueueLimit)
      : rate_lookup_(std::move(rate_lookup)),
        base_rate_(base_rate_bps),
        limit_(per_queue_limit) {}

  void OnAssociate(NodeId client) override;
  bool Enqueue(net::PacketPtr packet) override;
  net::PacketPtr Dequeue() override;
  bool HasEligible() const override;
  size_t QueuedPackets() const override;

 private:
  struct ClientQueue {
    net::PacketFifo packets;
    NodeId id = kInvalidNodeId;  // For the rate lookup when a burst is granted.
  };

  int32_t SlotFor(NodeId client);
  int BurstSizeFor(NodeId client) const;

  RateLookup rate_lookup_;
  int64_t base_rate_;
  size_t limit_;
  ClientSlotMap slots_;
  std::vector<ClientQueue> queues_;  // Association order.
  size_t next_ = 0;
  int burst_left_ = 0;  // Packets remaining in the current client's burst grant.
};

}  // namespace tbf::ap

#endif  // TBF_AP_QDISC_H_
