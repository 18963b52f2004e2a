// Transport demultiplexer: routes received packets to the endpoint registered for
// (node, flow_id).
//
// Flow ids are dense (the scenario builder assigns them from 1) and each flow has at
// most two endpoints (sender node, receiver node), so the handler table is a flat
// vector indexed by flow_id holding both endpoints inline - Deliver is two compares
// and an indexed load, no tree walk or hashing on the per-packet path.
#ifndef TBF_NET_DEMUX_H_
#define TBF_NET_DEMUX_H_

#include <vector>

#include "tbf/net/packet.h"
#include "tbf/util/logging.h"

namespace tbf::net {

class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void HandlePacket(const PacketPtr& packet) = 0;
};

class Demux {
 public:
  void Register(NodeId node, int flow_id, PacketHandler* handler) {
    TBF_CHECK(flow_id >= 0) << "flows must carry a non-negative flow_id to register";
    if (static_cast<size_t>(flow_id) >= flows_.size()) {
      flows_.resize(static_cast<size_t>(flow_id) + 1);
    }
    Entry& entry = flows_[static_cast<size_t>(flow_id)];
    for (int i = 0; i < 2; ++i) {
      if (entry.handler[i] != nullptr && entry.node[i] == node) {
        entry.handler[i] = handler;  // Re-register the same endpoint.
        return;
      }
    }
    for (int i = 0; i < 2; ++i) {
      if (entry.handler[i] == nullptr) {
        entry.node[i] = node;
        entry.handler[i] = handler;
        return;
      }
    }
    TBF_CHECK(false) << "flow " << flow_id << " already has two endpoints registered";
  }

  void Deliver(NodeId node, const PacketPtr& packet) {
    const int flow_id = packet->flow_id;
    if (flow_id >= 0 && static_cast<size_t>(flow_id) < flows_.size()) {
      const Entry& entry = flows_[static_cast<size_t>(flow_id)];
      if (entry.handler[0] != nullptr && entry.node[0] == node) {
        entry.handler[0]->HandlePacket(packet);
        return;
      }
      if (entry.handler[1] != nullptr && entry.node[1] == node) {
        entry.handler[1]->HandlePacket(packet);
        return;
      }
    }
    // No endpoint for (node, flow_id): the packet is dropped.
  }

 private:
  struct Entry {
    NodeId node[2] = {kInvalidNodeId, kInvalidNodeId};
    PacketHandler* handler[2] = {nullptr, nullptr};
  };

  std::vector<Entry> flows_;
};

}  // namespace tbf::net

#endif  // TBF_NET_DEMUX_H_
