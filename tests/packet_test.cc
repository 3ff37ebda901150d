// Tests for the Packet reliable-datagram protocol: Figure 3 scenarios, loss sweeps, duplicate
// suppression, critical-section deferral, and the response cache for non-idempotent services.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/machine.h"
#include "tests/packet_mini_host.h"

namespace dfil::net {
namespace {

struct Rig {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<MiniHost> a, b;

  explicit Rig(double loss_rate = 0.0, uint64_t seed = 1) {
    sim::CostModel costs = sim::CostModel::SunIpcEthernet();
    machine = std::make_unique<sim::Machine>(std::make_unique<sim::SharedEthernet>(costs),
                                             costs, sim::FaultPlan::UniformLoss(loss_rate, seed));
    a = std::make_unique<MiniHost>(0, machine.get());
    b = std::make_unique<MiniHost>(1, machine.get());
    machine->AddHost(a.get());
    machine->AddHost(b.get());
  }
};

Payload Int64Payload(int64_t v) {
  WireWriter w;
  w.Put(v);
  return w.Take();
}

TEST(PacketTest, RequestReplyRoundTrip) {
  Rig rig;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [](NodeId, WireReader r) -> std::optional<Payload> {
        return Int64Payload(r.Get<int64_t>() + 1);
      },
      true);
  int64_t got = 0;
  rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(41), [&](WireReader p) {
    got = p.Get<int64_t>();
  });
  rig.machine->Run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 0u);
}

TEST(PacketTest, ManyOutstandingRequestsComplete) {
  Rig rig;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [](NodeId, WireReader r) -> std::optional<Payload> {
        return Int64Payload(r.Get<int64_t>() * 2);
      },
      true);
  int64_t sum = 0;
  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i), [&](WireReader p) {
      sum += p.Get<int64_t>();
    });
  }
  rig.machine->Run();
  EXPECT_EQ(sum, 2 * (kRequests * (kRequests - 1) / 2));
}

class PacketLossTest : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(PacketLossTest, ReliableUnderLoss) {
  const auto [loss, seed] = GetParam();
  Rig rig(loss, seed);
  int64_t served = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader r) -> std::optional<Payload> {
        ++served;
        return Int64Payload(r.Get<int64_t>());
      },
      true);
  int replies = 0;
  constexpr int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                 [&](WireReader) { ++replies; });
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 0u);
  if (loss > 0) {
    EXPECT_GT(rig.a->endpoint->stats().retransmissions, 0u);
  }
  // Idempotent loss recovery (Figure 3c): each request id is first-served exactly once; every
  // further serve of a retransmission is a reply rebuilt from current state, never a buffered one.
  const PacketStats& bs = rig.b->endpoint->stats();
  EXPECT_EQ(bs.replies_first_serve, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(bs.replies_rebuilt, static_cast<uint64_t>(served) - kRequests);
  EXPECT_EQ(bs.replies_first_serve + bs.replies_rebuilt, bs.replies_sent);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, PacketLossTest,
                         ::testing::Combine(::testing::Values(0.05, 0.2, 0.5),
                                            ::testing::Values(1u, 2u, 3u, 4u)));

TEST(PacketTest, NonIdempotentServiceRunsOncePerRequest) {
  // Reply loss forces retransmission; the response cache must re-send the old reply instead of
  // re-running the mutating service.
  Rig rig(0.35, 7);
  int mutations = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestMutate,
      [&](NodeId, WireReader) -> std::optional<Payload> {
        ++mutations;
        return Int64Payload(mutations);
      },
      /*idempotent=*/false);
  constexpr int kRequests = 25;
  int replies = 0;
  int64_t sum = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestMutate, {}, [&](WireReader p) {
      ++replies;
      sum += p.Get<int64_t>();
    });
  }
  rig.machine->Run();
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(mutations, kRequests) << "a retransmitted request re-ran a mutating service";
  // Each reply value 1..kRequests delivered exactly once.
  EXPECT_EQ(sum, kRequests * (kRequests + 1) / 2);
}

TEST(PacketTest, CriticalSectionDefersMutatingRequests) {
  Rig rig;
  rig.b->critical = true;
  int mutations = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestMutate,
      [&](NodeId, WireReader) -> std::optional<Payload> {
        ++mutations;
        return Payload{};
      },
      /*idempotent=*/false);
  bool done = false;
  rig.a->endpoint->SendRequest(1, Service::kTestMutate, {}, [&](WireReader) { done = true; });
  // Release the critical section partway through: the deferred request's retransmission lands.
  rig.machine->ScheduleTimer(1, Milliseconds(150.0), [&] { rig.b->critical = false; }).Release();
  rig.machine->Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mutations, 1);
  EXPECT_GT(rig.b->endpoint->stats().deferred_requests, 0u);
  EXPECT_GT(rig.a->endpoint->stats().retransmissions, 0u);
}

TEST(PacketTest, ServiceDeferralViaNullopt) {
  Rig rig;
  int attempts = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader) -> std::optional<Payload> {
        if (++attempts < 3) {
          return std::nullopt;  // busy; the requester's retransmission retries
        }
        return Int64Payload(99);
      },
      true);
  int64_t got = 0;
  rig.a->endpoint->SendRequest(1, Service::kTestEcho, {}, [&](WireReader p) {
    got = p.Get<int64_t>();
  });
  rig.machine->Run();
  EXPECT_EQ(got, 99);
  EXPECT_EQ(attempts, 3);
}

TEST(PacketTest, RawDatagramsAreFireAndForget) {
  Rig rig(1.0, 1);  // total loss
  int received = 0;
  rig.b->endpoint->RegisterRawHandler(Service::kAppData,
                                      [&](NodeId, WireReader) { ++received; });
  rig.a->endpoint->SendRaw(1, Service::kAppData, Int64Payload(1));
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);  // nothing retries; the datagram is simply gone
  EXPECT_EQ(received, 0);
  EXPECT_EQ(rig.machine->net_stats().messages_dropped, 1u);
}

class AckModeLossTest : public ::testing::TestWithParam<double> {};

TEST_P(AckModeLossTest, TcpLikeModeIsAlsoReliable) {
  // The paper's §3 remark: a TCP-like mechanism (buffer + ack replies) also works — it just costs
  // an extra ack per exchange and reply buffering.
  PacketConfig cfg;
  cfg.ack_replies = true;
  sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  auto machine = std::make_unique<sim::Machine>(std::make_unique<sim::SharedEthernet>(costs),
                                                costs, sim::FaultPlan::UniformLoss(GetParam(), 11));
  MiniHost a(0, machine.get(), cfg);
  MiniHost b(1, machine.get(), cfg);
  machine->AddHost(&a);
  machine->AddHost(&b);
  int mutations = 0;
  b.endpoint->RegisterService(
      Service::kTestMutate,
      [&](NodeId, WireReader) -> std::optional<Payload> {
        ++mutations;
        return Int64Payload(mutations);
      },
      /*idempotent=*/false);
  int replies = 0;
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    a.endpoint->SendRequest(1, Service::kTestMutate, {}, [&](WireReader) { ++replies; });
  }
  sim::RunResult r = machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(mutations, kRequests);
  // Every exchange carries an explicit ack in this mode.
  EXPECT_GE(a.endpoint->stats().acks_sent, static_cast<uint64_t>(kRequests));
  if (GetParam() == 0.0) {
    // Quiet network: exactly 3 messages per exchange (request, reply, ack) vs Packet's 2 — the
    // overhead the paper's design avoids.
    EXPECT_EQ(machine->net_stats().messages_sent, static_cast<uint64_t>(3 * kRequests));
  }
}

INSTANTIATE_TEST_SUITE_P(Loss, AckModeLossTest, ::testing::Values(0.0, 0.2));

TEST(PacketTest, LargeBuffersGoBackToTheSpareList) {
  // On a new thread, whose spare list starts empty.
  std::thread([] {
    Rig rig;
    rig.b->endpoint->RegisterService(
        Service::kTestEcho,
        [](NodeId, WireReader) -> std::optional<Payload> { return Payload(70000); },
        /*idempotent=*/true);
    size_t reply_bytes = 0;
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, {},
                                 [&](WireReader p) { reply_bytes = p.remaining(); });
    rig.machine->Run();
    EXPECT_EQ(reply_bytes, 70000u);
    // Oldest first: the service's reply once it was framed, then the reply datagram (24 header
    // bytes more) once it was dispatched. The third reservation finds the list empty and
    // allocates exactly what it asks.
    std::vector<size_t> capacities;
    for (int i = 0; i < 3; ++i) {
      WireWriter w;
      w.Reserve(kSpareMinBytes);
      capacities.push_back(w.Take().capacity());
    }
    EXPECT_EQ(capacities, (std::vector<size_t>{70000, 70000 + 24, kSpareMinBytes}));
  }).join();
}

// Malformed datagrams handed straight to OnDatagram. Each must die on a receive-side check rather
// than dispatch garbage. The frames are built by hand from a mirror of the endpoint's private frame
// header (same field order, so the same layout).
struct RawHeader {
  uint8_t kind;
  uint16_t service;
  uint64_t req_id;
  uint64_t trace;
};
static_assert(sizeof(RawHeader) == 24);
constexpr uint8_t kAckKind = 4;
constexpr uint8_t kPackedKind = 5;

// Delivers `w`'s bytes to node 1 of a fresh rig as a datagram from node 0.
void DeliverToB(WireWriter& w) {
  Rig rig;
  sim::Datagram d;
  d.src = 0;
  d.dst = 1;
  d.payload = w.Take();
  rig.b->endpoint->OnDatagram(std::move(d));
}

// One packed frame: its uint32 length prefix, then an ack header (a frame that dispatches as a
// no-op on an endpoint with no buffered replies).
void PutAckFrame(WireWriter& w) {
  w.Put(static_cast<uint32_t>(sizeof(RawHeader)));
  w.Put(RawHeader{kAckKind, 0, 77, 0});
}

TEST(PacketDeathTest, DatagramShorterThanAHeaderDies) {
  WireWriter w;
  w.PutBytes(std::vector<std::byte>(sizeof(RawHeader) - 1).data(), sizeof(RawHeader) - 1);
  EXPECT_DEATH(DeliverToB(w), "\\(pos_ \\+ sizeof\\(T\\)\\) <= \\(data_\\.size\\(\\)\\)");
}

TEST(PacketDeathTest, PackedFrameRunningPastTheDatagramDies) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 2, 0});
  w.Put(uint32_t{100});  // claims 100 bytes; only one 24-byte header follows
  w.Put(RawHeader{kAckKind, 0, 77, 0});
  EXPECT_DEATH(DeliverToB(w), "\\(pos_ \\+ len\\) <= \\(data_\\.size\\(\\)\\)");
}

TEST(PacketDeathTest, TrailingBytesAfterPackedFramesDie) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 2, 0});
  PutAckFrame(w);
  PutAckFrame(w);
  w.Put(uint16_t{0});
  EXPECT_DEATH(DeliverToB(w), "trailing bytes after packed frames");
}

TEST(PacketDeathTest, PackedHeaderClaimingOneFrameDies) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 1, 0});
  PutAckFrame(w);
  EXPECT_DEATH(DeliverToB(w), "packed datagram with fewer than two frames");
}

TEST(PacketDeathTest, PackedFrameShorterThanAHeaderDies) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 2, 0});
  w.Put(uint32_t{10});
  w.PutBytes(std::vector<std::byte>(10).data(), 10);
  PutAckFrame(w);
  EXPECT_DEATH(DeliverToB(w), "corrupt packed frame");
}

TEST(PacketTest, RetransmissionUsesExponentialBackoff) {
  Rig rig(1.0, 1);  // nothing gets through; watch the retry clock
  rig.a->endpoint->config().retransmit_limit = 4;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho, [](NodeId, WireReader) -> std::optional<Payload> { return Payload{}; },
      true);
  rig.a->endpoint->SendRequest(1, Service::kTestEcho, {}, [](WireReader) {});
  // The limit ends the run softly and names the request.
  const sim::RunResult r = rig.machine->Run();
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NE(r.deadlock_report.find("node 0: request 1 to node 1 (service 100 test_echo) exceeded "
                                   "the retransmission limit"),
            std::string::npos)
      << r.deadlock_report;
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 3u);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 1u);
  // Timers of 100, 200 and 400 ms, then one held at the 400 ms cap: the 4th expiry ends the run
  // (plus a few ms of send and timer overheads).
  EXPECT_GE(r.makespan, Milliseconds(1100.0));
  EXPECT_LT(r.makespan, Milliseconds(1110.0));
}

TEST(PacketTest, UnacknowledgedReplyEndsTheRunAtTheLimit) {
  // The ack_replies twin: every ack is lost, so node 1 retransmits its buffered reply until the
  // limit, and that too ends the run softly.
  PacketConfig cfg;
  cfg.ack_replies = true;
  cfg.retransmit_limit = 4;
  sim::FaultPlan plan;
  sim::FaultRule drop_acks;
  drop_acks.klass = sim::MsgClass::kAck;
  drop_acks.drop = 1.0;
  plan.rules.push_back(drop_acks);
  sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  auto machine = std::make_unique<sim::Machine>(std::make_unique<sim::SharedEthernet>(costs),
                                                costs, plan);
  MiniHost a(0, machine.get(), cfg);
  MiniHost b(1, machine.get(), cfg);
  machine->AddHost(&a);
  machine->AddHost(&b);
  b.endpoint->RegisterService(
      Service::kTestEcho, [](NodeId, WireReader) -> std::optional<Payload> { return Payload{}; },
      true);
  int replies = 0;
  a.endpoint->SendRequest(1, Service::kTestEcho, {}, [&](WireReader) { ++replies; });
  const sim::RunResult r = machine->Run();
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NE(r.deadlock_report.find("node 1: reply to request 1 from node 0 (service 100 "
                                   "test_echo) was never acknowledged and exceeded the "
                                   "retransmission limit"),
            std::string::npos)
      << r.deadlock_report;
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(b.endpoint->stats().reply_retransmissions, 3u);
  EXPECT_EQ(a.endpoint->stats().duplicate_replies, 3u);
}

}  // namespace
}  // namespace dfil::net
