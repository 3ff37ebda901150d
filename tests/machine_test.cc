// Tests for the Machine event loop: step order, virtual-time causality, timer semantics,
// broadcast delivery, deadlock detection, and the wire serialization helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/wire.h"
#include "src/sim/machine.h"

namespace dfil::sim {
namespace {

// Scriptable host: runs a queue of (charge, action) steps when stepped.
class ScriptHost : public NodeHost {
 public:
  ScriptHost(NodeId id, Machine* machine) : id_(id), machine_(machine) {}

  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return !steps_.empty(); }
  bool Done() const override { return steps_.empty() && done_; }
  void Step() override {
    if (step_log != nullptr) {
      step_log->push_back(id_);
    }
    // One step: advance the clock by the scripted charge (respecting the machine's charge
    // limit — split like a real runtime would), then run the action.
    auto [cost, action] = steps_.front();
    const SimTime limit = machine_->ChargeLimit(id_);
    // Inside a Step the horizon is read from the memo taken before it; it must match the
    // definition.
    EXPECT_EQ(limit, std::min(machine_->NextExternalTime(), machine_->CausalHorizon(id_)));
    if (limit != kSimTimeNever && clock_ + cost > limit) {
      // Partial charge up to the limit; the remainder stays scripted.
      const SimTime done_part = limit > clock_ ? limit - clock_ : 0;
      clock_ += done_part;
      steps_.front().first = cost - done_part;
      return;
    }
    clock_ += cost;
    steps_.erase(steps_.begin());
    if (action) {
      action();
    }
  }
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(Datagram d) override { received.push_back(std::move(d)); }
  std::string DescribeBlocked() const override { return "scripted"; }

  void AddStep(SimTime cost, std::function<void()> action = nullptr) {
    steps_.emplace_back(cost, std::move(action));
  }
  void MarkDone() { done_ = true; }

  std::vector<Datagram> received;
  std::vector<NodeId>* step_log = nullptr;  // when set, every Step() appends this host's id

 private:
  NodeId id_;
  Machine* machine_;
  SimTime clock_ = 0;
  bool done_ = true;
  std::vector<std::pair<SimTime, std::function<void()>>> steps_;
};

// Has nothing to run until a datagram arrives; each arrival scripts one step.
class WakeOnReceiveHost : public ScriptHost {
 public:
  using ScriptHost::ScriptHost;
  void OnDatagram(Datagram d) override {
    ScriptHost::OnDatagram(std::move(d));
    AddStep(Microseconds(200.0));
  }
};

struct Rig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<ScriptHost> a, b;

  Rig() {
    CostModel costs = CostModel::SunIpcEthernet();
    machine = std::make_unique<Machine>(std::make_unique<SharedEthernet>(costs), costs);
    a = std::make_unique<ScriptHost>(0, machine.get());
    b = std::make_unique<ScriptHost>(1, machine.get());
    machine->AddHost(a.get());
    machine->AddHost(b.get());
  }
};

TEST(MachineTest, MessageArrivesAtItsVirtualTime) {
  Rig rig;
  // A sends at its clock 1 ms; B is busy computing for 50 ms. The delivery must bump nothing —
  // B's AdvanceTo sees a time in its past, and the message is handled "during" B's compute.
  rig.a->AddStep(Milliseconds(1.0), [&] {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.type = 7;
    rig.machine->Send(std::move(d), rig.a->Clock());
  });
  rig.b->AddStep(Milliseconds(50.0));
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  ASSERT_EQ(rig.b->received.size(), 1u);
  // B's final clock is its own compute time; the early delivery never rewound it.
  EXPECT_GE(rig.b->Clock(), Milliseconds(50.0));
}

TEST(MachineTest, CausalityHorizonStopsRunahead) {
  Rig rig;
  // Both nodes runnable. The charge limit for each must track the other's clock + lookahead, so
  // neither can race ahead while its peer is runnable.
  rig.a->AddStep(Milliseconds(10.0));
  rig.b->AddStep(Milliseconds(10.0));
  const SimTime limit0 = rig.machine->ChargeLimit(0);
  EXPECT_LT(limit0, Milliseconds(1.0));  // other node is at 0; lookahead is small
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rig.a->Clock(), Milliseconds(10.0));
  EXPECT_EQ(rig.b->Clock(), Milliseconds(10.0));
}

TEST(MachineTest, TimersFireInOrderAndAdvanceTheHost) {
  Rig rig;
  std::vector<int> order;
  rig.machine->ScheduleTimer(0, Milliseconds(5.0), [&] { order.push_back(2); }).Release();
  rig.machine->ScheduleTimer(0, Milliseconds(2.0), [&] { order.push_back(1); }).Release();
  rig.machine->ScheduleTimer(1, Milliseconds(9.0), [&] { order.push_back(3); }).Release();
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rig.a->Clock(), Milliseconds(5.0));
  EXPECT_EQ(rig.b->Clock(), Milliseconds(9.0));
}

TEST(MachineTest, CancelledTimerNeverFires) {
  Rig rig;
  bool fired = false;
  EventHandle h = rig.machine->ScheduleTimer(0, Milliseconds(1.0), [&] { fired = true; });
  h.Cancel();
  RunResult r = rig.machine->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(fired);
}

TEST(MachineTest, BroadcastReachesAllOthers) {
  CostModel costs = CostModel::SunIpcEthernet();
  auto machine = std::make_unique<Machine>(std::make_unique<SharedEthernet>(costs), costs);
  std::vector<std::unique_ptr<ScriptHost>> hosts;
  for (NodeId n = 0; n < 4; ++n) {
    hosts.push_back(std::make_unique<ScriptHost>(n, machine.get()));
    machine->AddHost(hosts.back().get());
  }
  Datagram d;
  d.src = 2;
  d.type = 9;
  machine->Broadcast(std::move(d), 0);
  RunResult r = machine->Run();
  EXPECT_TRUE(r.completed);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(hosts[n]->received.size(), n == 2 ? 0u : 1u) << n;
  }
}

TEST(MachineTest, MakespanIsMaxClock) {
  Rig rig;
  rig.a->AddStep(Milliseconds(3.0));
  rig.b->AddStep(Milliseconds(8.0));
  RunResult r = rig.machine->Run();
  EXPECT_EQ(r.makespan, Milliseconds(8.0));
}

TEST(MachineTest, VirtualTimeLimitStopsRunaways) {
  Rig rig;
  // Many steps: the loop's limit check runs between steps and must cut the run short.
  for (int i = 0; i < 100; ++i) {
    rig.a->AddStep(Seconds(0.5));
  }
  RunResult r = rig.machine->Run(/*max_virtual_time=*/Seconds(1.0));
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.deadlock_report.find("limit"), std::string::npos);
  EXPECT_LT(r.makespan, Seconds(2.0));
}

TEST(MachineTest, StepsLowestClockFirstAndLowestIdOnTies) {
  CostModel costs = CostModel::SunIpcEthernet();
  Machine machine(std::make_unique<SharedEthernet>(costs), costs);
  std::vector<std::unique_ptr<ScriptHost>> hosts;
  for (NodeId n = 0; n < 5; ++n) {
    hosts.push_back(std::make_unique<ScriptHost>(n, &machine));
  }
  hosts.push_back(std::make_unique<WakeOnReceiveHost>(5, &machine));
  std::vector<NodeId> order;
  for (auto& host : hosts) {
    host->step_log = &order;
    machine.AddHost(host.get());
  }
  // Hosts 0-4 start tied at clock 0 with three steps each, every step as long as the machine's
  // 200 us lookahead. Host 2's first step sends to host 5, which becomes runnable only when the
  // datagram lands 56.2 us later (64-byte minimum frame at 10 Mb/s, plus propagation).
  const SimTime step = Microseconds(200.0);
  for (NodeId n = 0; n < 5; ++n) {
    for (int s = 0; s < 3; ++s) {
      std::function<void()> action;
      if (n == 2 && s == 0) {
        action = [&machine, &hosts] {
          Datagram d;
          d.src = 2;
          d.dst = 5;
          machine.Send(std::move(d), hosts[2]->Clock());
        };
      }
      hosts[n]->AddStep(step, std::move(action));
    }
  }
  const RunResult r = machine.Run();
  ASSERT_TRUE(r.completed);
  // Round 1: each host completes a step at 200 us, its horizon then. Round 2: each stops at the
  // delivery (256.2 us) with the rest of its step still scripted. Round 3: all six hosts are tied
  // at 256.2 us, so the woken host 5 goes last. Round 4: hosts 0-4 run their last step.
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3, 4,  //
                                        0, 1, 2, 3, 4,  //
                                        0, 1, 2, 3, 4, 5,  //
                                        0, 1, 2, 3, 4}));
  ASSERT_EQ(hosts[5]->received.size(), 1u);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(hosts[n]->Clock(), 3 * step) << n;
  }
  EXPECT_EQ(hosts[5]->Clock(), Microseconds(256.2) + step);
}

TEST(MachineTest, ChargeLimitInsideAStepIsTheHostsCausalHorizon) {
  // Staggered clocks and no pending event: the limit a host reads inside its own Step is exactly
  // the definition, its lowest runnable peer's clock plus the lookahead.
  CostModel costs = CostModel::SunIpcEthernet();
  Machine machine(std::make_unique<SharedEthernet>(costs), costs);
  std::vector<std::unique_ptr<ScriptHost>> hosts;
  std::vector<SimTime> limits;
  for (NodeId n = 0; n < 4; ++n) {
    hosts.push_back(std::make_unique<ScriptHost>(n, &machine));
    machine.AddHost(hosts.back().get());
  }
  for (NodeId n = 0; n < 4; ++n) {
    hosts[n]->AdvanceTo(Microseconds(100.0 * (3 - n)));
    hosts[n]->AddStep(Microseconds(50.0), [&machine, &limits, n] {
      EXPECT_EQ(machine.NextExternalTime(), kSimTimeNever);
      limits.push_back(machine.ChargeLimit(n));
      EXPECT_EQ(limits.back(), machine.CausalHorizon(n));
    });
  }
  ASSERT_TRUE(machine.Run().completed);
  // Steps run from the lowest clock up: host 3 (0 us), 2 (100), 1 (200), 0 (300). A host whose
  // script is done is no longer runnable, so each host's lowest peer is the next one to step, and
  // the last host has none.
  EXPECT_EQ(limits, (std::vector<SimTime>{Microseconds(300.0), Microseconds(400.0),
                                          Microseconds(500.0), kSimTimeNever}));
}

// --- Wire serialization ---

TEST(WireTest, RoundTripsPods) {
  net::WireWriter w;
  w.Put<uint64_t>(0x1122334455667788ULL);
  w.Put<int32_t>(-7);
  w.Put(3.5);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_EQ(r.Get<uint64_t>(), 0x1122334455667788ULL);
  EXPECT_EQ(r.Get<int32_t>(), -7);
  EXPECT_EQ(r.Get<double>(), 3.5);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BytesAndRest) {
  net::WireWriter w;
  w.Put<uint16_t>(2);
  const char data[] = "abcd";
  w.PutBytes(data, 4);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_EQ(r.Get<uint16_t>(), 2);
  EXPECT_EQ(r.Rest().size(), 4u);
  char out[4];
  r.GetBytes(out, 4);
  EXPECT_EQ(std::memcmp(out, data, 4), 0);
}

// The run rule stated one byte at a time, the reference DiffPageRuns must reproduce exactly.
std::vector<net::DiffRun> ByteScanDiffRuns(const std::byte* twin, const std::byte* cur,
                                           size_t page_size, size_t min_gap) {
  std::vector<net::DiffRun> runs;
  size_t i = 0;
  while (i < page_size) {
    if (twin[i] == cur[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t last_diff = i;
    for (++i; i < page_size && i - last_diff <= min_gap; ++i) {
      if (twin[i] != cur[i]) {
        last_diff = i;
      }
    }
    runs.push_back(net::DiffRun{static_cast<uint16_t>(start),
                                static_cast<uint16_t>(last_diff - start + 1)});
    i = last_diff + 1;
  }
  return runs;
}

TEST(WireTest, DiffPageRunsMatchTheByteScan) {
  Rng rng(7);
  for (const size_t page : {size_t{4096}, size_t{512}, size_t{100}, size_t{13}, size_t{7}}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::byte> twin(page);
      for (std::byte& b : twin) {
        b = static_cast<std::byte>(rng.NextBounded(256));
      }
      std::vector<std::byte> cur = twin;
      // Edits of 1-20 bytes at random offsets leave gaps both shorter and longer than min_gap.
      const uint64_t edits = rng.NextBounded(12);
      for (uint64_t e = 0; e < edits; ++e) {
        const size_t at = rng.NextBounded(page);
        const size_t end = std::min(page, at + 1 + rng.NextBounded(20));
        for (size_t k = at; k < end; ++k) {
          cur[k] ^= std::byte{0x5a};
        }
      }
      const std::vector<net::DiffRun> got = net::DiffPageRuns(twin.data(), cur.data(), page);
      const std::vector<net::DiffRun> want = ByteScanDiffRuns(twin.data(), cur.data(), page, 8);
      ASSERT_EQ(got.size(), want.size()) << "page " << page << " trial " << trial;
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].offset, want[r].offset) << "page " << page << " trial " << trial;
        EXPECT_EQ(got[r].len, want[r].len) << "page " << page << " trial " << trial;
      }
    }
  }
}

TEST(WireDeathTest, TruncatedReadIsFatal) {
  net::WireWriter w;
  w.Put<uint16_t>(1);
  net::Payload p = w.Take();
  net::WireReader r(p);
  EXPECT_DEATH(r.Get<uint64_t>(), "DFIL_CHECK failed");
}

}  // namespace
}  // namespace dfil::sim
