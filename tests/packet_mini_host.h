// A net::PacketHost that runs only Packet handlers (no server threads are needed at this layer),
// shared by the Packet and coalescing tests. Charges simply advance the host's clock.
#ifndef DFIL_TESTS_PACKET_MINI_HOST_H_
#define DFIL_TESTS_PACKET_MINI_HOST_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/net/packet.h"
#include "src/sim/machine.h"

namespace dfil::net {

class MiniHost : public PacketHost {
 public:
  MiniHost(NodeId id, sim::Machine* machine) : id_(id) {
    endpoint = std::make_unique<PacketEndpoint>(machine, this, PacketConfig{});
  }
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return false; }
  bool Done() const override { return true; }
  void Step() override {}
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(sim::Datagram d) override {
    if (on_datagram) {
      on_datagram(d);
    }
    endpoint->OnDatagram(std::move(d));
  }
  std::string DescribeBlocked() const override { return ""; }
  void Charge(TimeCategory, SimTime cost) override { clock_ += cost; }
  bool InCriticalSection() const override { return critical; }

  std::unique_ptr<PacketEndpoint> endpoint;
  // The node's critical-section flag: while set, mutating requests are ignored.
  bool critical = false;
  // When set, sees each datagram delivered to this node before the endpoint does.
  std::function<void(const sim::Datagram&)> on_datagram;

 private:
  NodeId id_;
  SimTime clock_ = 0;
};

// Writes `body` as a service's reply, for services that build their reply up front.
inline bool Reply(ReplyWriter& reply, const Payload& body) {
  reply.Body(body.size()).PutBytes(body.data(), body.size());
  return true;
}

}  // namespace dfil::net

#endif  // DFIL_TESTS_PACKET_MINI_HOST_H_
