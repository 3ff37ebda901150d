// Tests for per-destination frame coalescing (DESIGN.md §11): packing back-to-back frames into
// one datagram, MTU-bounded flushes, idempotent unpacking of packed datagrams under FaultPlan
// drop/duplication/reorder/burst loss, the mutual-peer request hold (and its just-served filter),
// reply elision with request cancelation, and the Jacobson/Karels RTT estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/packet.h"
#include "src/sim/machine.h"
#include "tests/packet_mini_host.h"

namespace dfil::net {
namespace {

// Two MiniHosts under a FaultPlan, with coalescing configurable per test.
struct Rig {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<MiniHost> a, b;

  explicit Rig(sim::FaultPlan plan = {}, bool coalesce = true) {
    sim::CostModel costs = sim::CostModel::SunIpcEthernet();
    machine = std::make_unique<sim::Machine>(std::make_unique<sim::SharedEthernet>(costs), costs,
                                             std::move(plan));
    a = std::make_unique<MiniHost>(0, machine.get());
    b = std::make_unique<MiniHost>(1, machine.get());
    if (coalesce) {
      CoalesceConfig co;
      co.enabled = true;
      a->endpoint->set_coalesce(co);
      b->endpoint->set_coalesce(co);
    }
    machine->AddHost(a.get());
    machine->AddHost(b.get());
  }
};

Payload Int64Payload(int64_t v) {
  WireWriter w;
  w.Put(v);
  return w.Take();
}

void RegisterEcho(MiniHost& host, Service service = Service::kTestEcho) {
  host.endpoint->RegisterService(
      service,
      [](NodeId, WireReader r, ReplyWriter& reply) {
        return Reply(reply, Int64Payload(r.Get<int64_t>() + 1));
      },
      /*idempotent=*/true);
}

TEST(CoalesceTest, OffByDefaultSendsOneDatagramPerMessage) {
  Rig rig({}, /*coalesce=*/false);
  RegisterEcho(*rig.b);
  int replies = 0;
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                 [&](WireReader) { ++replies; });
  }
  rig.machine->Run();
  EXPECT_EQ(replies, kRequests);
  // Legacy schedule: no packing machinery engages; every logical message is its own datagram.
  const PacketStats& as = rig.a->endpoint->stats();
  EXPECT_EQ(as.frames_coalesced, 0u);
  EXPECT_EQ(as.datagrams_sent, as.requests_sent);
  EXPECT_EQ(rig.b->endpoint->stats().frames_coalesced, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().datagrams_sent, rig.b->endpoint->stats().replies_sent);
}

TEST(CoalesceTest, SingletonFlushStaysOneDatagram) {
  Rig rig;
  RegisterEcho(*rig.b);
  int64_t got = 0;
  rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(41),
                               [&](WireReader p) { got = p.Get<int64_t>(); });
  rig.machine->Run();
  EXPECT_EQ(got, 42);
  // A lone frame flushes as a legacy singleton: one datagram each way, nothing coalesced.
  EXPECT_EQ(rig.a->endpoint->stats().datagrams_sent, 1u);
  EXPECT_EQ(rig.a->endpoint->stats().frames_coalesced, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().datagrams_sent, 1u);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
}

TEST(CoalesceTest, BackToBackRequestsPackIntoOneDatagram) {
  Rig rig;
  RegisterEcho(*rig.b);
  int64_t sum = 0;
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                 [&](WireReader p) { sum += p.Get<int64_t>(); });
  }
  rig.machine->Run();
  EXPECT_EQ(sum, kRequests * (kRequests - 1) / 2 + kRequests);
  // All eight small requests are queued at the same instant, so the flush event packs them into
  // a single datagram; the eight replies are produced in one delivery and pack the same way back.
  EXPECT_EQ(rig.a->endpoint->stats().datagrams_sent, 1u);
  EXPECT_EQ(rig.a->endpoint->stats().frames_coalesced, static_cast<uint64_t>(kRequests - 1));
  EXPECT_EQ(rig.b->endpoint->stats().datagrams_sent, 1u);
  EXPECT_EQ(rig.b->endpoint->stats().frames_coalesced, static_cast<uint64_t>(kRequests - 1));
}

TEST(CoalesceTest, MtuBoundSplitsOversizedBatches) {
  Rig rig;
  int served = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader, ReplyWriter&) {
        ++served;
        return true;
      },
      /*idempotent=*/true);
  // 8 x 2000-byte requests exceed the 8800-byte datagram budget: the flush must split the batch,
  // never emit an over-MTU datagram, and still deliver every frame.
  constexpr int kRequests = 8;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    WireWriter w;
    for (int j = 0; j < 250; ++j) {
      w.Put(static_cast<int64_t>(i * 1000 + j));
    }
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, w.Take(), [&](WireReader) { ++replies; });
  }
  rig.machine->Run();
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(served, kRequests);
  const PacketStats& as = rig.a->endpoint->stats();
  EXPECT_GE(as.datagrams_sent, 2u);
  EXPECT_LT(as.datagrams_sent, static_cast<uint64_t>(kRequests));
  EXPECT_GT(as.frames_coalesced, 0u);
}

// `len` bytes of a pattern keyed by `seed`, so a body shifted, truncated or mixed with another
// message's bytes cannot match.
Payload Pattern(uint32_t len, uint32_t seed) {
  Payload p(len);
  for (uint32_t i = 0; i < len; ++i) {
    p[i] = static_cast<std::byte>((i * 31 + seed * 7 + (i >> 8)) & 0xff);
  }
  return p;
}

struct LargeBodyRun {
  std::vector<Payload> replies;  // indexed like kReplyLens
  Payload raw;
  PacketStats a, b;
};

// Replies of these sizes (bytes) are requested back to back at one instant: one above 64 KB, then
// four small ones that a coalescing endpoint packs into one datagram.
constexpr uint32_t kReplyLens[] = {70000, 100, 37, 512, 8};
// A raw datagram above the 16 KB size at which message buffers are kept for reuse.
constexpr uint32_t kRawLen = 20000;

LargeBodyRun RunLargeBodies(bool coalesce) {
  Rig rig({}, coalesce);
  // The request names the reply's length and pattern seed.
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [](NodeId, WireReader r, ReplyWriter& reply) {
        const auto len = r.Get<uint32_t>();
        const auto seed = r.Get<uint32_t>();
        return Reply(reply, Pattern(len, seed));
      },
      /*idempotent=*/true);
  LargeBodyRun run;
  run.replies.resize(std::size(kReplyLens));
  // Handlers read in place, so each copies the body it keeps.
  rig.b->endpoint->RegisterRawHandler(
      Service::kAppData,
      [&](NodeId, WireReader body) { run.raw.assign(body.Rest().begin(), body.Rest().end()); },
      TimeCategory::kDataTransfer);
  for (uint32_t i = 0; i < std::size(kReplyLens); ++i) {
    WireWriter w;
    w.Put(kReplyLens[i]);
    w.Put(i);
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, w.Take(), [&run, i](WireReader p) {
      run.replies[i].assign(p.Rest().begin(), p.Rest().end());
    });
  }
  rig.a->endpoint->SendRaw(1, Service::kAppData, Pattern(kRawLen, 99));
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  run.a = rig.a->endpoint->stats();
  run.b = rig.b->endpoint->stats();
  return run;
}

void ExpectBodiesExact(const LargeBodyRun& run) {
  for (uint32_t i = 0; i < std::size(kReplyLens); ++i) {
    EXPECT_EQ(run.replies[i], Pattern(kReplyLens[i], i)) << "reply " << i;
  }
  EXPECT_EQ(run.raw, Pattern(kRawLen, 99));
}

TEST(CoalesceTest, LargeBodiesArriveByteExactUncoalesced) {
  const LargeBodyRun run = RunLargeBodies(/*coalesce=*/false);
  ExpectBodiesExact(run);
  // One datagram per message. The wire counts are pinned: how a body is buffered moves no byte.
  EXPECT_EQ(run.a.datagrams_sent, 6u);
  EXPECT_EQ(run.b.datagrams_sent, 5u);
  EXPECT_EQ(run.a.wire_bytes, 20532u);
  EXPECT_EQ(run.b.wire_bytes, 71067u);
  EXPECT_EQ(run.a.frames_coalesced, 0u);
  EXPECT_EQ(run.b.frames_coalesced, 0u);
}

TEST(CoalesceTest, LargeBodiesArriveByteExactCoalesced) {
  const LargeBodyRun run = RunLargeBodies(/*coalesce=*/true);
  ExpectBodiesExact(run);
  // The 70000-byte reply exceeds kMaxDatagramBytes and goes out as a singleton legacy datagram;
  // the four small replies behind it pack into one datagram, as do the five requests. The raw
  // body also exceeds the MTU and goes alone. The wire counts are pinned, as above.
  EXPECT_EQ(run.a.datagrams_sent, 2u);
  EXPECT_EQ(run.b.datagrams_sent, 2u);
  EXPECT_EQ(run.a.wire_bytes, 20344u);
  EXPECT_EQ(run.b.wire_bytes, 70933u);
  EXPECT_EQ(run.a.frames_coalesced, 4u);
  EXPECT_EQ(run.b.frames_coalesced, 3u);
}

TEST(CoalesceTest, PackedUnpackIsIdempotentUnderDuplication) {
  // Every packed datagram is delivered twice: unpacking must suppress the duplicate frames, so a
  // non-idempotent service still runs exactly once per request and each reply lands once.
  sim::FaultPlan plan;
  plan.seed = 5;
  sim::FaultRule dup;
  dup.klass = sim::MsgClass::kPacked;
  dup.duplicate = 1.0;
  dup.delay_min = Milliseconds(1.0);
  dup.delay_max = Milliseconds(8.0);
  plan.rules.push_back(dup);
  Rig rig(plan);
  int mutations = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestMutate,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        ++mutations;
        return Reply(reply, Int64Payload(mutations));
      },
      /*idempotent=*/false);
  constexpr int kRequests = 10;
  int replies = 0;
  int64_t sum = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestMutate, {}, [&](WireReader p) {
      ++replies;
      sum += p.Get<int64_t>();
    });
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(mutations, kRequests) << "a duplicated packed datagram re-ran a mutating service";
  EXPECT_EQ(sum, kRequests * (kRequests + 1) / 2);  // each reply value delivered exactly once
  EXPECT_GT(rig.b->endpoint->stats().duplicate_requests, 0u);
}

TEST(CoalesceTest, PackedDatagramLossRecovers) {
  // Dropping a packed datagram loses every frame inside (correlated loss); per-request
  // retransmission must recover each one independently.
  sim::FaultPlan plan;
  plan.seed = 11;
  sim::FaultRule drop;
  drop.klass = sim::MsgClass::kPacked;
  drop.drop = 0.4;
  plan.rules.push_back(drop);
  Rig rig(plan);
  RegisterEcho(*rig.b);
  constexpr int kRequests = 20;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                 [&](WireReader) { ++replies; });
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 0u);
  EXPECT_GT(rig.a->endpoint->stats().retransmissions, 0u);
}

TEST(CoalesceTest, PackedReorderDeliversEveryFrameOnce) {
  // Random extra delay reorders packed datagrams against retransmissions and each other; the
  // response cache plus duplicate suppression keep non-idempotent semantics intact.
  sim::FaultPlan plan;
  plan.seed = 23;
  sim::FaultRule delay;
  delay.klass = sim::MsgClass::kPacked;
  delay.delay = 0.6;
  delay.delay_min = 0;
  delay.delay_max = Milliseconds(40.0);
  plan.rules.push_back(delay);
  Rig rig(plan);
  int mutations = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestMutate,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        ++mutations;
        return Reply(reply, Int64Payload(mutations));
      },
      /*idempotent=*/false);
  constexpr int kRequests = 15;
  int replies = 0;
  int64_t sum = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestMutate, {}, [&](WireReader p) {
      ++replies;
      sum += p.Get<int64_t>();
    });
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(mutations, kRequests);
  EXPECT_EQ(sum, kRequests * (kRequests + 1) / 2);
}

TEST(CoalesceTest, PackedBurstLossRecovers) {
  // Gilbert-Elliott burst loss wipes out runs of consecutive datagrams — including whole packed
  // batches — and the protocol must still complete every exchange.
  sim::FaultPlan plan;
  plan.seed = 31;
  plan.burst.p_good_to_bad = 0.1;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  Rig rig(plan);
  RegisterEcho(*rig.b);
  constexpr int kRequests = 20;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                 [&](WireReader) { ++replies; });
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 0u);
}

TEST(CoalesceTest, ElidedReplyThenCancelClearsOutstanding) {
  Rig rig;
  int served = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        ++served;
        rig.b->endpoint->ElideCurrentReply();
        return Reply(reply, Int64Payload(0));
      },
      /*idempotent=*/true);
  bool reply_ran = false;
  const uint64_t req = rig.a->endpoint->SendRequest(1, Service::kTestEcho, {},
                                                    [&](WireReader) { reply_ran = true; });
  // A broader signal (in the runtime: the barrier done broadcast) supersedes the elided reply;
  // model it with a timer that cancels the request before the first retransmission would fire.
  rig.machine->ScheduleTimer(0, Milliseconds(30.0), [&] { rig.a->endpoint->CancelRequest(req); })
      .Release();
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(served, 1);
  EXPECT_FALSE(reply_ran);
  EXPECT_EQ(rig.a->endpoint->outstanding(), 0u);
  EXPECT_EQ(rig.a->endpoint->stats().requests_canceled, 1u);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().replies_elided, 1u);
  EXPECT_EQ(rig.b->endpoint->stats().replies_sent, 0u);
}

TEST(CoalesceTest, MutualPeerHoldRidesOnOwedReply) {
  Rig rig;
  RegisterEcho(*rig.a, Service::kPageRequest);
  RegisterEcho(*rig.b, Service::kPageRequest);
  int replies = 0;
  // t=0: node 0 requests from node 1, making them mutual peers (and stamping last_req_from_).
  rig.a->endpoint->SendRequest(1, Service::kPageRequest, Int64Payload(1),
                               [&](WireReader) { ++replies; });
  // t=30ms: node 1 requests from node 0. Age since node 0's request (~29ms) sits between
  // kRequestHold (20ms) and kMutualWindow (250ms), and node 1 is the higher-numbered peer, so
  // the request is HELD for a carrier.
  rig.machine
      ->ScheduleTimer(1, Milliseconds(30.0),
                      [&] {
                        rig.b->endpoint->SendRequest(0, Service::kPageRequest, Int64Payload(2),
                                                     [&](WireReader) { ++replies; });
                      })
      .Release();
  // t=35ms: node 0 requests again; node 1's reply to it is the carrier the held frame rides on.
  rig.machine
      ->ScheduleTimer(0, Milliseconds(35.0),
                      [&] {
                        rig.a->endpoint->SendRequest(1, Service::kPageRequest, Int64Payload(3),
                                                     [&](WireReader) { ++replies; });
                      })
      .Release();
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, 3);
  // The held request packed with the reply node 1 owed node 0: at least one coalesced frame on
  // node 1's side, and nobody needed a retransmission (the hold is well under the RTO).
  EXPECT_GT(rig.b->endpoint->stats().frames_coalesced, 0u);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().retransmissions, 0u);
}

TEST(CoalesceTest, JustServedFilterSendsRequestImmediately) {
  Rig rig;
  RegisterEcho(*rig.a, Service::kPageRequest);
  RegisterEcho(*rig.b, Service::kPageRequest);
  int replies = 0;
  rig.a->endpoint->SendRequest(1, Service::kPageRequest, Int64Payload(1),
                               [&](WireReader) { ++replies; });
  // t=10ms: node 0's request was served ~8ms ago — inside the hold window — so node 0's next
  // request (the only possible carrier) is a full exchange period away. The just-served filter
  // must send node 1's request immediately instead of stalling it for the whole hold.
  rig.machine
      ->ScheduleTimer(1, Milliseconds(10.0),
                      [&] {
                        rig.b->endpoint->SendRequest(0, Service::kPageRequest, Int64Payload(2),
                                                     [&](WireReader) { ++replies; });
                      })
      .Release();
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, 2);
  // Nothing packed: the request went out alone, unheld.
  EXPECT_EQ(rig.b->endpoint->stats().frames_coalesced, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().retransmissions, 0u);
}

TEST(CoalesceTest, HoldTimerFlushesCarrierlessRequest) {
  Rig rig;
  RegisterEcho(*rig.a, Service::kPageRequest);
  RegisterEcho(*rig.b, Service::kPageRequest);
  int replies = 0;
  rig.a->endpoint->SendRequest(1, Service::kPageRequest, Int64Payload(1),
                               [&](WireReader) { ++replies; });
  // Node 1's request is held at t=30ms, but node 0 never sends again: the per-destination hold
  // timer (kRequestHold) must flush it on its own, well before the retransmission timeout.
  rig.machine
      ->ScheduleTimer(1, Milliseconds(30.0),
                      [&] {
                        rig.b->endpoint->SendRequest(0, Service::kPageRequest, Int64Payload(2),
                                                     [&](WireReader) { ++replies; });
                      })
      .Release();
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(rig.b->endpoint->stats().frames_coalesced, 0u);  // it flushed alone
  EXPECT_EQ(rig.b->endpoint->stats().retransmissions, 0u);   // the hold never reached the RTO
}

TEST(CoalesceTest, RttEstimatorAbsorbsReplyJitter) {
  // Reply-side jitter up to 40ms keeps every RTT sample under the rto_min clamp (100ms), so the
  // Jacobson/Karels estimator must never undercut the legacy timeout: zero spurious
  // retransmissions over a long sequential exchange train, with net.rto_us recording each sample.
  sim::FaultPlan plan;
  plan.seed = 47;
  sim::FaultRule jitter;
  jitter.klass = sim::MsgClass::kReply;
  jitter.delay = 1.0;
  jitter.delay_min = Milliseconds(5.0);
  jitter.delay_max = Milliseconds(40.0);
  plan.rules.push_back(jitter);
  Rig rig(plan);
  MetricsRegistry metrics;
  rig.a->endpoint->set_metrics(&metrics);
  RegisterEcho(*rig.b);
  constexpr int kExchanges = 20;
  int replies = 0;
  std::function<void()> next = [&] {
    rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(replies), [&](WireReader) {
      if (++replies < kExchanges) {
        next();
      }
    });
  };
  next();
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kExchanges);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
  const Histogram& rto = metrics.Hist("net.rto_us");
  EXPECT_EQ(rto.count(), static_cast<uint64_t>(kExchanges));  // every first-attempt reply sampled
  // The recorded RTO is clamped to [rto_min, retransmit_timeout_max].
  EXPECT_GE(rto.min(), 100000.0);
  EXPECT_LE(rto.max(), 400000.0);
}

TEST(CoalesceTest, QueuedLargeRepliesDoNotTimeOut) {
  // A bulk refetch asks one home for several large replies at once, and they leave the home one
  // after another. Each request's first timer must cover the replies queued ahead of it, or the
  // last ones retransmit on a loss-free wire and the home rebuilds them.
  constexpr size_t kReplyBytes = 65804;  // a 16-page bulk reply
  Rig rig;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [](NodeId, WireReader, ReplyWriter& reply) { return Reply(reply, Payload(kReplyBytes)); },
      /*idempotent=*/true);
  constexpr int kRequests = 4;
  int replies = 0;
  for (int i = 0; i < kRequests; ++i) {
    rig.a->endpoint->SendRequest(
        1, Service::kTestEcho, Int64Payload(i), [&](WireReader r) {
          EXPECT_EQ(r.remaining(), kReplyBytes);
          ++replies;
        },
        TimeCategory::kDataTransfer, kReplyBytes);
  }
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(replies, kRequests);
  EXPECT_EQ(rig.a->endpoint->stats().retransmissions, 0u);
  EXPECT_EQ(rig.b->endpoint->stats().replies_rebuilt, 0u);
}

TEST(CoalesceTest, BackoffNeverShrinksATimerAboveTheCap) {
  // A reduce-up's first timer is the 1 s loss backstop, above the 400 ms backoff cap. Backoff
  // must not cut it down to the cap, so no retransmission comes sooner than the first one did.
  Rig rig;
  std::vector<SimTime> arrivals;
  rig.b->endpoint->RegisterService(
      Service::kReduceUp,
      [&](NodeId, WireReader, ReplyWriter&) {
        arrivals.push_back(rig.b->Clock());
        if (arrivals.size() <= 3) {
          return false;  // deferred: only a retransmission gets it served
        }
        return true;
      },
      /*idempotent=*/true);
  bool replied = false;
  rig.a->endpoint->SendRequest(1, Service::kReduceUp, Int64Payload(0),
                               [&](WireReader) { replied = true; });
  sim::RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(replied);
  ASSERT_EQ(arrivals.size(), 4u);
  const SimTime first_gap = arrivals[1] - arrivals[0];
  EXPECT_GE(first_gap, kElidedAckTimeout);
  for (size_t i = 2; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i] - arrivals[i - 1], first_gap)
        << "retransmission " << i << " came " << ToMilliseconds(arrivals[i] - arrivals[i - 1])
        << " ms after the previous arrival, sooner than the first's "
        << ToMilliseconds(first_gap) << " ms";
  }
}

// --- The bytes on the wire ---------------------------------------------------------------------
//
// A reply puts exactly a frame header plus the body its service wrote on the wire, whichever path
// sends it. Frames are read back with a mirror of the endpoint's private header.

struct WireHeader {
  uint8_t kind;
  uint16_t service;
  uint64_t req_id;
  uint64_t trace;
};
static_assert(sizeof(WireHeader) == kFrameHeaderBytes);
constexpr uint8_t kReplyKind = 2;
constexpr uint8_t kPackedKind = 5;

// Two MiniHosts; node 0 keeps every datagram it receives, with the buffer it arrived in, and
// node 1 every request datagram.
struct WireRig {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<MiniHost> a, b;
  std::vector<Payload> to_a;
  std::vector<const std::byte*> to_a_buffers;
  std::vector<sim::Datagram> to_b;

  explicit WireRig(bool coalesce) {
    sim::CostModel costs = sim::CostModel::SunIpcEthernet();
    machine = std::make_unique<sim::Machine>(std::make_unique<sim::SharedEthernet>(costs), costs);
    a = std::make_unique<MiniHost>(0, machine.get());
    b = std::make_unique<MiniHost>(1, machine.get());
    if (coalesce) {
      CoalesceConfig co;
      co.enabled = true;
      a->endpoint->set_coalesce(co);
      b->endpoint->set_coalesce(co);
    }
    machine->AddHost(a.get());
    machine->AddHost(b.get());
    a->on_datagram = [this](const sim::Datagram& d) {
      to_a.push_back(d.payload);
      to_a_buffers.push_back(d.payload.data());
    };
    b->on_datagram = [this](const sim::Datagram& d) { to_b.push_back(d); };
  }
};

// `frame` is the reply to `req_id` whose body is exactly `body`.
void ExpectReplyFrame(std::span<const std::byte> frame, uint64_t req_id, const Payload& body) {
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + body.size());
  WireReader r(frame);
  const auto h = r.Get<WireHeader>();
  EXPECT_EQ(h.kind, kReplyKind);
  EXPECT_EQ(h.service, static_cast<uint16_t>(Service::kTestEcho));
  EXPECT_EQ(h.req_id, req_id);
  const std::span<const std::byte> rest = r.Rest();
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), body.begin(), body.end()));
}

class ReplyWireTest : public ::testing::TestWithParam<bool> {};  // coalescing on?

TEST_P(ReplyWireTest, IdempotentReplyGoesOutInTheBufferItsServiceWrote) {
  WireRig rig(/*coalesce=*/GetParam());
  const std::byte* written = nullptr;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader r, ReplyWriter& reply) {
        WireWriter& w = reply.Body(sizeof(int64_t));
        w.Put(r.Get<int64_t>() + 1);
        written = w.data();
        return true;
      },
      /*idempotent=*/true);
  const uint64_t req =
      rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(41), [](WireReader) {});
  ASSERT_TRUE(rig.machine->Run().completed);
  ASSERT_EQ(rig.to_a.size(), 1u);
  ExpectReplyFrame(rig.to_a[0], req, Int64Payload(42));
  // A singleton datagram, coalesced or not: the reply was never copied.
  EXPECT_EQ(rig.to_a_buffers[0], written);
  EXPECT_EQ(rig.machine->net_stats().bytes_sent, 2 * (kFrameHeaderBytes + 8));
}

TEST_P(ReplyWireTest, DeferredServeSendsNothingOfWhatItWrote) {
  WireRig rig(/*coalesce=*/GetParam());
  int calls = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        reply.Body(sizeof(int64_t)).Put(int64_t{++calls == 1 ? -1 : 5});
        return calls > 1;  // the first serve defers, after writing
      },
      /*idempotent=*/true);
  const uint64_t req =
      rig.a->endpoint->SendRequest(1, Service::kTestEcho, {}, [](WireReader) {});
  ASSERT_TRUE(rig.machine->Run().completed);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(rig.b->endpoint->stats().deferred_requests, 1u);
  ASSERT_EQ(rig.to_a.size(), 1u);
  ExpectReplyFrame(rig.to_a[0], req, Int64Payload(5));
}

TEST_P(ReplyWireTest, ElidedServePutsNoReplyOnTheWire) {
  WireRig rig(/*coalesce=*/GetParam());
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        reply.Body(sizeof(int64_t)).Put(int64_t{7});
        rig.b->endpoint->ElideCurrentReply();
        return true;
      },
      /*idempotent=*/true);
  const uint64_t req = rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(0),
                                                    [](WireReader) {});
  rig.machine->ScheduleTimer(0, Milliseconds(30.0), [&] { rig.a->endpoint->CancelRequest(req); })
      .Release();
  ASSERT_TRUE(rig.machine->Run().completed);
  EXPECT_EQ(rig.b->endpoint->stats().replies_elided, 1u);
  EXPECT_TRUE(rig.to_a.empty());
  EXPECT_EQ(rig.machine->net_stats().bytes_sent, kFrameHeaderBytes + 8);
}

TEST_P(ReplyWireTest, CachedReplyGoesOutAsFirstSent) {
  WireRig rig(/*coalesce=*/GetParam());
  int mutations = 0;
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [&](NodeId, WireReader, ReplyWriter& reply) {
        return Reply(reply, Int64Payload(++mutations));
      },
      /*idempotent=*/false);
  const uint64_t req =
      rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(3), [](WireReader) {});
  ASSERT_TRUE(rig.machine->Run().completed);
  // The network duplicates the request: the service does not run again, and the reply comes
  // from the response cache.
  ASSERT_EQ(rig.to_b.size(), 1u);
  rig.machine->Send(rig.to_b[0], rig.a->Clock());
  ASSERT_TRUE(rig.machine->Run().completed);
  EXPECT_EQ(mutations, 1);
  EXPECT_EQ(rig.b->endpoint->stats().duplicate_requests, 1u);
  ASSERT_EQ(rig.to_a.size(), 2u);
  ExpectReplyFrame(rig.to_a[0], req, Int64Payload(1));
  EXPECT_EQ(rig.to_a[1], rig.to_a[0]);
}

INSTANTIATE_TEST_SUITE_P(Coalescing, ReplyWireTest, ::testing::Bool());

TEST(ReplyWireTest, PackedFlushCarriesEachReplyFrameAsWritten) {
  WireRig rig(/*coalesce=*/true);
  rig.b->endpoint->RegisterService(
      Service::kTestEcho,
      [](NodeId, WireReader r, ReplyWriter& reply) {
        return Reply(reply, Int64Payload(r.Get<int64_t>() * 10));
      },
      /*idempotent=*/true);
  constexpr int kRequests = 3;
  std::vector<uint64_t> reqs;
  for (int i = 0; i < kRequests; ++i) {
    reqs.push_back(rig.a->endpoint->SendRequest(1, Service::kTestEcho, Int64Payload(i),
                                                [](WireReader) {}));
  }
  ASSERT_TRUE(rig.machine->Run().completed);
  // One packed datagram: its header, then per frame a length prefix and the frame.
  ASSERT_EQ(rig.to_a.size(), 1u);
  const size_t frame_bytes = kFrameHeaderBytes + sizeof(int64_t);
  ASSERT_EQ(rig.to_a[0].size(),
            kFrameHeaderBytes + kRequests * (sizeof(uint32_t) + frame_bytes));
  WireReader r(rig.to_a[0]);
  const auto h = r.Get<WireHeader>();
  EXPECT_EQ(h.kind, kPackedKind);
  EXPECT_EQ(h.req_id, static_cast<uint64_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(r.Get<uint32_t>(), frame_bytes);
    ExpectReplyFrame(r.GetSpan(frame_bytes), reqs[i], Int64Payload(i * 10));
  }
}

}  // namespace
}  // namespace dfil::net
