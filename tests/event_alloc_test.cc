// Scheduling allocates nothing in steady state (DESIGN.md §2): this binary replaces the global
// operator new with a counting one, warms each path up, and then requires N more rounds of it to
// allocate nothing. It also counts the allocations of whole fork/join runs, to check that a
// queued fork reuses a join cell. It is its own binary because the replacement covers the whole
// program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "src/apps/quadrature.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dfil::sim {
namespace {

constexpr int kRounds = 1000;

// Allocations made by `kRounds` calls of `round`, after `warm_up` calls that let every reused
// table reach its steady-state size.
template <typename Round>
uint64_t SteadyStateAllocations(int warm_up, Round round) {
  for (int i = 0; i < warm_up; ++i) {
    round(i);
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = warm_up; i < warm_up + kRounds; ++i) {
    round(i);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(EventAllocTest, CountingOperatorNewSeesAllocations) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto p = std::make_unique<std::string>(64, 'x');
  EXPECT_GE(g_allocations.load(std::memory_order_relaxed) - before, 1u);
}

TEST(EventAllocTest, QueueScheduleCancelAndPopAllocateNothing) {
  // A steady 256 pending events, as in the event-queue probe, plus per round one event that is
  // cancelled at the head and one that is cancelled deep in the heap. A deep tombstone waits
  // 2 x kDepth rounds to reach the head, so the heap has grown to its size by 4 x kDepth.
  EventQueue q;
  int64_t fired = 0;
  constexpr int kDepth = 256;
  constexpr int kWarmUp = 4 * kDepth;
  for (int i = 0; i < kDepth; ++i) {
    q.Schedule(i, [&fired] { ++fired; }).Release();
  }
  const uint64_t n = SteadyStateAllocations(kWarmUp, [&](int i) {
    EventHandle head = q.Schedule(i, [&fired] { fired += 100; });
    EventHandle deep = q.Schedule(i + 2 * kDepth, [&fired] { fired += 100; });
    q.Schedule(i + kDepth, [&fired] { ++fired; }).Release();
    head.Cancel();
    deep.Cancel();
    q.Pop().second();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fired, kWarmUp + kRounds);  // no cancelled event ran
}

// Takes every delivery and lets Run drain the queue (never runnable, always done).
class SinkHost final : public NodeHost {
 public:
  explicit SinkHost(NodeId id) : id_(id) {}
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return false; }
  bool Done() const override { return true; }
  void Step() override {}
  void AdvanceTo(SimTime t) override { clock_ = t > clock_ ? t : clock_; }
  void OnDatagram(Datagram) override { ++received; }
  std::string DescribeBlocked() const override { return ""; }

  int64_t received = 0;

 private:
  NodeId id_;
  SimTime clock_ = 0;
};

struct MachineRig {
  std::unique_ptr<Machine> machine;
  SinkHost a{0}, b{1};

  MachineRig() {
    const CostModel costs = CostModel::SunIpcEthernet();
    machine = std::make_unique<Machine>(std::make_unique<SharedEthernet>(costs), costs);
    machine->AddHost(&a);
    machine->AddHost(&b);
  }
};

constexpr int kWarmUp = 64;

TEST(EventAllocTest, MachineDeliveriesAllocateNothing) {
  MachineRig rig;
  const uint64_t n = SteadyStateAllocations(kWarmUp, [&](int) {
    // A few datagrams in flight at once, each kept in a mail record until it is delivered.
    for (int k = 0; k < 4; ++k) {
      Datagram d;
      d.src = k % 2;
      d.dst = 1 - k % 2;
      rig.machine->Send(std::move(d), rig.a.Clock());
    }
    ASSERT_TRUE(rig.machine->Run().completed);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(rig.a.received + rig.b.received, 4 * (kWarmUp + kRounds));
}

TEST(EventAllocTest, MachineTimersAllocateNothingCancelledOrNot) {
  MachineRig rig;
  int64_t fired = 0;
  const uint64_t n = SteadyStateAllocations(kWarmUp, [&](int) {
    const SimTime now = rig.a.Clock();
    rig.machine->ScheduleTimer(0, now + 10, [&fired] { ++fired; }).Release();
    EventHandle later = rig.machine->ScheduleTimer(1, now + 20, [&fired] { fired += 100; });
    EventHandle sooner = rig.machine->ScheduleTimer(0, now + 5, [&fired] { fired += 100; });
    later.Cancel();
    sooner.Cancel();
    ASSERT_TRUE(rig.machine->Run().completed);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(fired, kWarmUp + kRounds);
}

}  // namespace
}  // namespace dfil::sim

namespace dfil::apps {
namespace {

struct QuadratureCount {
  uint64_t allocations;
  uint64_t queued_forks;  // forks_local + forks_sent: each one takes a join cell
};

QuadratureCount CountQuadrature(double tolerance) {
  QuadratureParams p;
  p.tolerance = tolerance;
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.network = core::NetworkKind::kSharedEthernet;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const AppRun df = RunQuadratureDf(p, cfg);
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(df.report.completed) << df.report.deadlock_report;
  uint64_t forks = 0;
  for (const core::NodeReport& nr : df.report.nodes) {
    forks += nr.filaments.forks_local + nr.filaments.forks_sent;
  }
  return {allocations, forks};
}

TEST(ForkJoinAllocTest, QueuedForksReuseFinishedJoinCells) {
  // A finer tolerance queues many more forks. Were each join cell a fresh allocation, the extra
  // allocations would be at least the extra queued forks; with finished cells reused, what is
  // left (task-deque chunks, mostly) stays well under half of them.
  const QuadratureCount coarse = CountQuadrature(1e-6);
  const QuadratureCount fine = CountQuadrature(1e-8);
  ASSERT_GT(fine.queued_forks, coarse.queued_forks + 1000);
  const uint64_t extra_forks = fine.queued_forks - coarse.queued_forks;
  EXPECT_LT(fine.allocations - coarse.allocations, extra_forks / 2)
      << "extra queued forks " << extra_forks;
}

}  // namespace
}  // namespace dfil::apps
