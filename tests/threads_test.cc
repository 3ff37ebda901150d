// Tests for the machine-dependent context switch, stacks, and server threads — both backends.
#include "src/threads/server_thread.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/threads/context.h"
#include "src/threads/stack.h"

namespace dfil::threads {
namespace {

class ContextBackendTest : public ::testing::TestWithParam<ContextBackend> {};

TEST_P(ContextBackendTest, ThreadRunsAndFinishes) {
  ThreadSystem sys(GetParam());
  bool ran = false;
  ServerThread* t = sys.Create([&] { ran = true; });
  sys.SwitchTo(t);
  EXPECT_TRUE(ran);
  EXPECT_EQ(t->state(), ThreadState::kDone);
  EXPECT_EQ(sys.current(), nullptr);
}

TEST_P(ContextBackendTest, BlockAndResumePreservesLocals) {
  ThreadSystem sys(GetParam());
  std::vector<int> trace;
  ServerThread* t = sys.Create([&] {
    int local = 41;
    double fp = 2.5;
    trace.push_back(local);
    sys.current()->set_state(ThreadState::kBlocked);
    sys.current()->set_block_reason(WaitKind::kChannel, 7);
    sys.SwitchToHost();
    // Locals must survive the suspension.
    trace.push_back(local + 1);
    trace.push_back(static_cast<int>(fp * 4));
  });
  sys.SwitchTo(t);
  EXPECT_EQ(t->state(), ThreadState::kBlocked);
  EXPECT_EQ(t->block_kind(), WaitKind::kChannel);
  EXPECT_EQ(t->block_detail(), 7u);
  t->set_state(ThreadState::kReady);
  sys.SwitchTo(t);
  EXPECT_EQ(t->state(), ThreadState::kDone);
  EXPECT_EQ(trace, (std::vector<int>{41, 42, 10}));
}

TEST_P(ContextBackendTest, ManyThreadsInterleave) {
  ThreadSystem sys(GetParam());
  constexpr int kThreads = 16;
  constexpr int kRounds = 50;
  std::vector<int> progress(kThreads, 0);
  std::vector<ServerThread*> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.push_back(sys.Create([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        progress[i] = r + 1;
        sys.current()->set_state(ThreadState::kReady);
        sys.SwitchToHost();
      }
    }));
  }
  // Round-robin until everyone is done.
  bool any_alive = true;
  while (any_alive) {
    any_alive = false;
    for (ServerThread* t : threads) {
      if (t->state() == ThreadState::kReady) {
        sys.SwitchTo(t);
        any_alive = any_alive || t->state() != ThreadState::kDone;
      }
    }
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(progress[i], kRounds);
  }
}

TEST_P(ContextBackendTest, DeepCallChainsSurviveSwitches) {
  ThreadSystem sys(GetParam());
  // Recursive function that yields at every level, stressing saved stack contents.
  struct Recurser {
    ThreadSystem* sys;
    int Run(int depth) {
      if (depth == 0) {
        return 1;
      }
      char pad[128];
      std::memset(pad, depth & 0xff, sizeof(pad));
      sys->current()->set_state(ThreadState::kReady);
      sys->SwitchToHost();
      int below = Run(depth - 1);
      // Verify our frame was not clobbered while suspended.
      for (char c : pad) {
        if (c != static_cast<char>(depth & 0xff)) {
          return -1000000;
        }
      }
      return below + depth;
    }
  };
  int result = 0;
  Recurser rec{&sys};
  ServerThread* t = sys.Create([&] { result = rec.Run(100); });
  while (t->state() != ThreadState::kDone) {
    sys.SwitchTo(t);
  }
  EXPECT_EQ(result, 1 + 100 * 101 / 2);
}

TEST_P(ContextBackendTest, RecycleReusesThreadsAndStacks) {
  ThreadSystem sys(GetParam());
  int runs = 0;
  for (int i = 0; i < 100; ++i) {
    ServerThread* t = sys.Create([&] { ++runs; });
    sys.SwitchTo(t);
    ASSERT_EQ(t->state(), ThreadState::kDone);
    sys.Recycle(t);
  }
  EXPECT_EQ(runs, 100);
  EXPECT_EQ(sys.live_threads(), 0u);
  // Sequential create/recycle must not grow the stack pool beyond one stack.
  EXPECT_EQ(sys.stacks_allocated(), 1u);
}

TEST_P(ContextBackendTest, OnExitHookFires) {
  ThreadSystem sys(GetParam());
  ServerThread* exited = nullptr;
  sys.on_exit = [&](ServerThread* t) { exited = t; };
  ServerThread* t = sys.Create([] {});
  sys.SwitchTo(t);
  EXPECT_EQ(exited, t);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ContextBackendTest,
                         ::testing::Values(ContextBackend::kAsm, ContextBackend::kUcontext),
                         [](const auto& info) {
                           return info.param == ContextBackend::kAsm ? "Asm" : "Ucontext";
                         });

TEST(StackTest, CanaryDetectsUnderflow) {
  Stack stack(16384);
  EXPECT_TRUE(stack.CanaryIntact());
  // Scribble below the usable region (i.e., the overflow direction on x86).
  std::memset(stack.usable().data() - 8, 0xAB, 8);
  EXPECT_FALSE(stack.CanaryIntact());
}

TEST(StackTest, FreshStackHasIntactCanaryOverReusedMemory) {
  // Stack memory is not zero-filled, so a new stack may sit on memory a dead one left dirty; its
  // canary must come from its own constructor.
  for (int round = 0; round < 4; ++round) {
    auto dirty = std::make_unique<Stack>(kDefaultStackBytes);
    std::span<std::byte> usable = dirty->usable();
    std::memset(usable.data() - 8, 0xAB, usable.size() + 8);
    EXPECT_FALSE(dirty->CanaryIntact());
    dirty.reset();
    StackPool pool(kDefaultStackBytes);
    std::unique_ptr<Stack> fresh = pool.Acquire();
    EXPECT_EQ(pool.allocated(), 1u);
    EXPECT_TRUE(fresh->CanaryIntact()) << "round " << round;
    pool.Release(std::move(fresh));
  }
}

TEST(StackPoolTest, AcquireReleaseRoundTrips) {
  StackPool pool(32768);
  auto s1 = pool.Acquire();
  auto s2 = pool.Acquire();
  EXPECT_EQ(pool.allocated(), 2u);
  std::byte* raw1 = s1->usable().data();
  pool.Release(std::move(s1));
  pool.Release(std::move(s2));
  EXPECT_EQ(pool.pooled(), 2u);
  // LIFO reuse.
  auto s3 = pool.Acquire();
  EXPECT_EQ(s3->usable().data(), raw1 == s3->usable().data() ? raw1 : s3->usable().data());
  EXPECT_EQ(pool.allocated(), 2u);
}

}  // namespace
}  // namespace dfil::threads
