// Tests for the discrete-event substrate: event queue ordering, network models, cost model.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"

namespace dfil::sim {
namespace {

TEST(EventQueueTest, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); }).Release();
  q.Schedule(10, [&] { order.push_back(1); }).Release();
  q.Schedule(20, [&] { order.push_back(2); }).Release();
  while (!q.empty()) {
    q.Pop().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); }).Release();
  }
  while (!q.empty()) {
    q.Pop().second();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelledEventsNeverFire) {
  EventQueue q;
  int fired = 0;
  EventHandle h1 = q.Schedule(10, [&] { ++fired; });
  q.Schedule(20, [&] { ++fired; }).Release();
  h1.Cancel();
  EXPECT_EQ(q.NextTime(), 20);
  while (!q.empty()) {
    q.Pop().second();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancellingHeadExposesNext) {
  EventQueue q;
  EventHandle h = q.Schedule(5, [] {});
  q.Schedule(15, [] {}).Release();
  h.Cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.NextTime(), 15);
}

TEST(EventQueueTest, EmptyAfterAllCancelled) {
  EventQueue q;
  EventHandle a = q.Schedule(1, [] {});
  EventHandle b = q.Schedule(2, [] {});
  a.Cancel();
  b.Cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
}

TEST(EventQueueTest, PopPrunesCancelledEntriesBehindTheHead) {
  // NextTime() and empty() read the head as it is, so Pop() must leave a live entry there.
  EventQueue q;
  q.Schedule(10, [] {}).Release();
  EventHandle cancelled = q.Schedule(20, [] {});
  q.Schedule(30, [] {}).Release();
  cancelled.Cancel();
  EXPECT_EQ(q.Pop().first, 10);
  EXPECT_EQ(q.NextTime(), 30);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, CancelAfterFireLeavesQueueUnchanged) {
  EventQueue q;
  std::vector<int> order;
  EventHandle fired = q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); }).Release();
  q.Schedule(30, [&] { order.push_back(3); }).Release();
  q.Pop().second();
  fired.Cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.NextTime(), 20);
  while (!q.empty()) {
    q.Pop().second();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CostModelTest, WireTimeMatchesTenMegabit) {
  CostModel m = CostModel::SunIpcEthernet();
  // 4 KB page + 58 bytes framing at 1.25 bytes/us ~ 3.32 ms.
  EXPECT_NEAR(ToMilliseconds(m.WireTime(4096)), 3.32, 0.01);
  // Minimum frame applies to tiny payloads.
  EXPECT_EQ(m.WireTime(1), m.WireTime(4));
}

TEST(SharedEthernetTest, TransmissionsSerializeOnTheMedium) {
  CostModel m = CostModel::SunIpcEthernet();
  SharedEthernet net(m);
  TxPlan a = net.PlanUnicast(0, 1, 4096, /*ready=*/0);
  TxPlan b = net.PlanUnicast(2, 3, 4096, /*ready=*/0);
  // Same ready time, but the medium is busy: b starts after a finishes.
  EXPECT_GE(b.deliver_at - a.deliver_at, m.WireTime(4096));
  EXPECT_EQ(net.MediumBusyTime(), 2 * m.WireTime(4096));
}

TEST(SharedEthernetTest, BroadcastIsOneTransmission) {
  CostModel m = CostModel::SunIpcEthernet();
  SharedEthernet net(m);
  std::vector<TxPlan> plans;
  net.PlanBroadcast(0, {1, 2, 3}, 1000, 0, plans);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].deliver_at, plans[1].deliver_at);
  EXPECT_EQ(plans[1].deliver_at, plans[2].deliver_at);
  EXPECT_EQ(net.MediumBusyTime(), m.WireTime(1000));
}

TEST(SwitchedNetworkTest, DistinctSourcesDoNotContend) {
  CostModel m = CostModel::SunIpcEthernet();
  SwitchedNetwork net(m, 4);
  TxPlan a = net.PlanUnicast(0, 1, 4096, 0);
  TxPlan b = net.PlanUnicast(2, 3, 4096, 0);
  EXPECT_EQ(a.deliver_at, b.deliver_at);  // full parallelism across links
}

TEST(SwitchedNetworkTest, SameSourceSerializesAtTheNic) {
  CostModel m = CostModel::SunIpcEthernet();
  SwitchedNetwork net(m, 4);
  TxPlan a = net.PlanUnicast(0, 1, 4096, 0);
  TxPlan b = net.PlanUnicast(0, 2, 4096, 0);
  EXPECT_GE(b.deliver_at - a.deliver_at, m.WireTime(4096));
}

class LossRateTest : public ::testing::TestWithParam<double> {};

TEST_P(LossRateTest, DropRateTracksProbability) {
  FaultInjector inj(FaultPlan::UniformLoss(GetParam(), 42));
  int dropped = 0;
  constexpr int kFrames = 20000;
  for (int i = 0; i < kFrames; ++i) {
    if (inj.Decide(0, 1, 0, MsgClass::kUnknown).drop) {
      ++dropped;
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kFrames, GetParam(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Rates, LossRateTest, ::testing::Values(0.0, 0.01, 0.1, 0.5));

TEST(FaultInjectorTest, DecisionsAreReplayable) {
  FaultPlan plan = FaultPlan::UniformLoss(0.3, 7);
  FaultRule dup;
  dup.klass = MsgClass::kReply;
  dup.duplicate = 0.5;
  dup.delay_max = Microseconds(100);
  plan.rules.push_back(dup);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    const NodeId src = i % 3;
    const NodeId dst = (i + 1) % 3;
    const MsgClass k = (i % 2) != 0 ? MsgClass::kReply : MsgClass::kRequest;
    const FaultDecision da = a.Decide(src, dst, 1, k);
    const FaultDecision db = b.Decide(src, dst, 1, k);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.dup_delays, db.dup_delays);
  }
}

// The satellite fix this PR pins: decisions are keyed by (src, dst, per-pair ordinal), so the
// fate of pair (0,1)'s messages does not change when unrelated traffic is interleaved (the old
// per-receiver shared Rng stream reshuffled every decision when topology or timing changed).
TEST(FaultInjectorTest, PairDecisionsAreStableUnderUnrelatedTraffic) {
  const FaultPlan plan = FaultPlan::UniformLoss(0.4, 99);
  FaultInjector quiet(plan);
  FaultInjector noisy(plan);
  std::vector<bool> quiet_drops;
  std::vector<bool> noisy_drops;
  for (int i = 0; i < 500; ++i) {
    quiet_drops.push_back(quiet.Decide(0, 1, 5, MsgClass::kRequest).drop);
    // The noisy run interleaves three unrelated flows before each (0,1) message.
    noisy.Decide(2, 3, 5, MsgClass::kRequest);
    noisy.Decide(3, 1, 5, MsgClass::kReply);
    noisy.Decide(1, 0, 5, MsgClass::kReply);
    noisy_drops.push_back(noisy.Decide(0, 1, 5, MsgClass::kRequest).drop);
  }
  EXPECT_EQ(quiet_drops, noisy_drops);
}

TEST(FaultInjectorTest, RuleSeqWindowTargetsOneMessage) {
  FaultPlan plan;
  plan.seed = 3;
  FaultRule r;
  r.src = 0;
  r.dst = 1;
  r.drop = 1.0;
  r.seq_from = 2;  // drop exactly the 3rd (0->1) message
  r.seq_to = 3;
  plan.rules.push_back(r);
  FaultInjector inj(plan);
  std::vector<bool> drops;
  for (int i = 0; i < 5; ++i) {
    drops.push_back(inj.Decide(0, 1, 0, MsgClass::kUnknown).drop);
  }
  EXPECT_EQ(drops, (std::vector<bool>{false, false, true, false, false}));
}

TEST(FaultInjectorTest, StallDefersIntoWindowEnd) {
  FaultPlan plan;
  plan.seed = 1;
  StallSpec s;
  s.node = 2;
  s.first = Milliseconds(10);
  s.period = Milliseconds(100);
  s.duration = Milliseconds(5);
  plan.stalls.push_back(s);
  FaultInjector inj(plan);
  // Before, inside, and after the first window; inside the second (periodic) window.
  EXPECT_EQ(inj.AdjustForStall(2, Milliseconds(9)), Milliseconds(9));
  EXPECT_EQ(inj.AdjustForStall(2, Milliseconds(12)), Milliseconds(15));
  EXPECT_EQ(inj.AdjustForStall(2, Milliseconds(16)), Milliseconds(16));
  EXPECT_EQ(inj.AdjustForStall(2, Milliseconds(111)), Milliseconds(115));
  // Other nodes are unaffected.
  EXPECT_EQ(inj.AdjustForStall(1, Milliseconds(12)), Milliseconds(12));
}

TEST(FaultInjectorTest, BurstLossClustersDrops) {
  FaultPlan plan;
  plan.seed = 5;
  plan.burst.p_good_to_bad = 0.05;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  FaultInjector inj(plan);
  int drops = 0;
  int runs = 0;  // maximal consecutive-drop runs
  bool in_run = false;
  constexpr int kFrames = 20000;
  for (int i = 0; i < kFrames; ++i) {
    const bool drop = inj.Decide(0, 1, 0, MsgClass::kUnknown).drop;
    drops += drop ? 1 : 0;
    runs += (drop && !in_run) ? 1 : 0;
    in_run = drop;
  }
  ASSERT_GT(drops, 0);
  // Correlated loss: far fewer runs than drops (independent loss would give runs ~= drops here,
  // since the overall drop rate is low).
  EXPECT_LT(runs * 2, drops);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork();
  // The forked stream must not mirror the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == child.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.NextBernoulli(0.0));
  EXPECT_TRUE(r.NextBernoulli(1.0));
}

}  // namespace
}  // namespace dfil::sim
