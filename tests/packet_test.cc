// Tests for the Packet reliable-datagram protocol: Figure 3 scenarios, loss sweeps, duplicate
// suppression, critical-section deferral, and the response cache for non-idempotent services.
#include <gtest/gtest.h>

#include <memory>
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
      [](NodeId, WireReader r, ReplyWriter& reply) {
        return Reply(reply, Int64Payload(r.Get<int64_t>() + 1));
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
      [](NodeId, WireReader r, ReplyWriter& reply) {
        return Reply(reply, Int64Payload(r.Get<int64_t>() * 2));
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
      [&](NodeId, WireReader r, ReplyWriter& reply) {
        ++served;
        return Reply(reply, Int64Payload(r.Get<int64_t>()));
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
      [&](NodeId, WireReader, ReplyWriter& reply) {
        ++mutations;
        return Reply(reply, Int64Payload(mutations));
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
      [&](NodeId, WireReader, ReplyWriter&) {
        ++mutations;
        return true;
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
      [&](NodeId, WireReader, ReplyWriter& reply) {
        if (++attempts < 3) {
          return false;  // busy; the requester's retransmission retries
        }
        return Reply(reply, Int64Payload(99));
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

TEST(PacketTest, LargeBuffersGoBackToTheSpareList) {
  // On a new thread, whose spare list starts empty.
  std::thread([] {
    Rig rig;
    rig.b->endpoint->RegisterService(
        Service::kTestEcho,
        [](NodeId, WireReader, ReplyWriter& reply) { return Reply(reply, Payload(70000)); },
        /*idempotent=*/true);
    size_t reply_bytes = 0;
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, {},
                                 [&](WireReader p) { reply_bytes = p.remaining(); });
    rig.machine->Run();
    EXPECT_EQ(reply_bytes, 70000u);
    // The reply went out in the one buffer the service wrote, its body plus the 24 header bytes,
    // which came back to the list once the reply was dispatched. The second reservation finds
    // the list empty and allocates exactly what it asks.
    std::vector<size_t> capacities;
    for (int i = 0; i < 2; ++i) {
      WireWriter w;
      w.Reserve(kSpareMinBytes);
      capacities.push_back(w.Take().capacity());
    }
    EXPECT_EQ(capacities, (std::vector<size_t>{70000 + 24, kSpareMinBytes}));
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
constexpr uint8_t kReplyKind = 2;
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

// One packed frame: its uint32 length prefix, then the header of a reply to a request that was
// never sent (a frame that dispatches as a dropped duplicate).
void PutReplyFrame(WireWriter& w) {
  w.Put(static_cast<uint32_t>(sizeof(RawHeader)));
  w.Put(RawHeader{kReplyKind, 0, 77, 0});
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
  w.Put(RawHeader{kReplyKind, 0, 77, 0});
  EXPECT_DEATH(DeliverToB(w), "\\(pos_ \\+ len\\) <= \\(data_\\.size\\(\\)\\)");
}

TEST(PacketDeathTest, TrailingBytesAfterPackedFramesDie) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 2, 0});
  PutReplyFrame(w);
  PutReplyFrame(w);
  w.Put(uint16_t{0});
  EXPECT_DEATH(DeliverToB(w), "trailing bytes after packed frames");
}

TEST(PacketDeathTest, PackedHeaderClaimingOneFrameDies) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 1, 0});
  PutReplyFrame(w);
  EXPECT_DEATH(DeliverToB(w), "packed datagram with fewer than two frames");
}

TEST(PacketDeathTest, PackedFrameShorterThanAHeaderDies) {
  WireWriter w;
  w.Put(RawHeader{kPackedKind, 0, 2, 0});
  w.Put(uint32_t{10});
  w.PutBytes(std::vector<std::byte>(10).data(), 10);
  PutReplyFrame(w);
  EXPECT_DEATH(DeliverToB(w), "corrupt packed frame");
}

TEST(PacketTest, RetransmissionUsesExponentialBackoff) {
  Rig rig(1.0, 1);  // nothing gets through; watch the retry clock
  rig.b->endpoint->RegisterService(
      Service::kTestEcho, [](NodeId, WireReader, ReplyWriter&) { return true; },
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
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions,
            static_cast<uint64_t>(kRetransmitLimit - 1));
  EXPECT_EQ(rig.a->endpoint->outstanding(), 1u);
  // Timers of 100, 200 and 400 ms, then 57 more held at the 400 ms cap: the 60th expiry ends the
  // run at 23.5 s, plus the send and timer overheads (0.62 ms to send, 0.67 ms per retransmission:
  // 40.15 ms).
  EXPECT_GE(r.makespan, Milliseconds(23540.0));
  EXPECT_LT(r.makespan, Milliseconds(23550.0));
}

}  // namespace
}  // namespace dfil::net
