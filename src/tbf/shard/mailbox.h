// Cross-shard packet handoff: value records and single-producer mailboxes.
//
// Shards never share packets. A packet crossing the backbone is flattened into a
// PacketRecord (plain values, no pool pointers) by the sending shard and materialized
// into a fresh packet from the *destination* shard's pool when the mailbox drains at the
// next window barrier. Pools therefore stay thread-private and refcounts non-atomic.
//
// A Mailbox is a plain vector: exactly one shard appends to it during a window (the
// owner of the sending ShardLink) and only the coordinator reads it, between windows,
// after every shard thread has counted itself out of the window barrier. The barrier's
// happens-before is the only synchronization the mailbox needs - no atomics, no locks.
#ifndef TBF_SHARD_MAILBOX_H_
#define TBF_SHARD_MAILBOX_H_

#include <vector>

#include "tbf/net/packet.h"

namespace tbf::shard {

// The wire-format of a packet in flight between shards: every field a transport or AP
// on the far side reads. `ap_enqueued` deliberately does not cross - it is re-stamped
// when the destination AP enqueues the materialized packet, exactly as WiredLink
// deliveries into an AP behave in the single-cell build.
struct PacketRecord {
  TimeNs arrival = 0;  // Absolute delivery time in the destination shard.
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  NodeId wlan_client = kInvalidNodeId;
  int flow_id = -1;
  net::Proto proto = net::Proto::kUdp;
  int size_bytes = 0;
  int64_t seq = 0;
  int64_t end_seq = 0;
  int64_t ack = 0;
  TimeNs created = 0;
};

inline PacketRecord MakeRecord(const net::Packet& p, TimeNs arrival) {
  PacketRecord r;
  r.arrival = arrival;
  r.src = p.src;
  r.dst = p.dst;
  r.wlan_client = p.wlan_client;
  r.flow_id = p.flow_id;
  r.proto = p.proto;
  r.size_bytes = p.size_bytes;
  r.seq = p.seq;
  r.end_seq = p.end_seq;
  r.ack = p.ack;
  r.created = p.created;
  return r;
}

// Deep-copies a record into a fresh packet drawn from `pool` (the destination shard's).
inline net::PacketPtr Materialize(const PacketRecord& r, net::PacketPool* pool) {
  net::PacketPtr p = pool->Allocate();
  p->src = r.src;
  p->dst = r.dst;
  p->wlan_client = r.wlan_client;
  p->flow_id = r.flow_id;
  p->proto = r.proto;
  p->size_bytes = r.size_bytes;
  p->seq = r.seq;
  p->end_seq = r.end_seq;
  p->ack = r.ack;
  p->created = r.created;
  return p;
}

// Single-producer, barrier-drained record queue. Posts happen on the producing shard's
// thread inside a window; pending()/Clear() happen on the coordinator between windows.
class Mailbox {
 public:
  void Post(PacketRecord record) { records_.push_back(record); }

  const std::vector<PacketRecord>& pending() const { return records_; }

  // Keeps capacity: a steady cross-shard flow settles into zero allocations per window.
  void Clear() { records_.clear(); }

 private:
  std::vector<PacketRecord> records_;
};

}  // namespace tbf::shard

#endif  // TBF_SHARD_MAILBOX_H_
