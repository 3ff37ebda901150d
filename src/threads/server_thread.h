// Server threads: the stackful carriers that execute stackless filaments.
//
// In the paper's design (§2.1–2.2), filaments have no private stack; they are executed one at a
// time by server threads — traditional threads with stacks, scheduled non-preemptively by a
// scheduler written for DF (based on the SR runtime's package). A ThreadSystem manages the server
// threads of one node: creation, recycling through a stack pool, and switching between the node's
// host context (the simulator loop) and thread contexts.
//
// Control flow discipline: the host switches into a thread with SwitchTo(); a thread gives up the
// processor only through SwitchToHost() (when it blocks, yields for a pending event, or exits).
// Threads never switch directly to each other, so the scheduler policy lives entirely with the
// caller.
#ifndef DFIL_THREADS_SERVER_THREAD_H_
#define DFIL_THREADS_SERVER_THREAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/intrusive_list.h"
#include "src/common/ledger.h"
#include "src/threads/context.h"
#include "src/threads/stack.h"

namespace dfil::threads {

enum class ThreadState : uint8_t {
  kReady,    // on a ready queue, has work
  kRunning,  // currently executing on this node
  kBlocked,  // waiting (page, barrier, join, channel)
  kDone,     // body finished; awaiting recycle
};

class ThreadSystem;

class ServerThread {
 public:
  uint64_t id() const { return id_; }
  ThreadState state() const { return state_; }
  void set_state(ThreadState s) { state_ = s; }

  // Why the thread is blocked: the wait kind and its detail (page id, service number or barrier
  // epoch; 0 for kinds without one). The wake books the scheduler gap it ends under this kind, and
  // deadlock reports print it.
  WaitKind block_kind() const { return block_kind_; }
  uint64_t block_detail() const { return block_detail_; }
  void set_block_reason(WaitKind kind, uint64_t detail = 0) {
    block_kind_ = kind;
    block_detail_ = detail;
  }

  // Virtual time at which the thread last suspended in BlockCurrent; paired with the block
  // reason at wake to produce the blocked-interval record. -1 while the thread is not blocked.
  int64_t blocked_since() const { return blocked_since_; }
  void set_blocked_since(int64_t t) { blocked_since_ = t; }

  // Pool this thread is currently executing for (TimeLedger::kOtherRun = not a pool runner). Set
  // by the pool engine around ExecutePool; read by the runtime's Charge/AccountWake paths to
  // attribute run and blocked time per pool in the node's time ledger (common/ledger.h). Stays
  // set while the runner is suspended on a fault, so the blocked interval lands on the faulting
  // pool.
  int profile_pool() const { return profile_pool_; }
  void set_profile_pool(int pool) { profile_pool_ = pool; }

  // Link used by ready queues and wait queues (a thread is on at most one at a time).
  ListNode queue_link;

 private:
  friend class ThreadSystem;

  uint64_t id_ = 0;
  ThreadState state_ = ThreadState::kReady;
  WaitKind block_kind_ = WaitKind::kIdle;
  uint64_t block_detail_ = 0;
  int64_t blocked_since_ = -1;
  int profile_pool_ = TimeLedger::kOtherRun;
  Context context_;
  std::unique_ptr<Stack> stack_;
  std::function<void()> body_;
  ThreadSystem* system_ = nullptr;
};

// Per-node thread manager.
class ThreadSystem {
 public:
  explicit ThreadSystem(ContextBackend backend);
  ~ThreadSystem();

  ThreadSystem(const ThreadSystem&) = delete;
  ThreadSystem& operator=(const ThreadSystem&) = delete;

  // Creates a ready-to-run thread executing `body`. Reuses a recycled thread when available.
  ServerThread* Create(std::function<void()> body);

  // Host side: resumes `thread`. Returns when the thread switches back to the host.
  void SwitchTo(ServerThread* thread);

  // Thread side: gives the processor back to the host context. The caller must already have set
  // its state (kBlocked with a reason, or kReady if merely yielding).
  void SwitchToHost();

  // The thread currently running on this node, or nullptr when the host context is active.
  ServerThread* current() const { return current_; }

  // Returns a finished thread's stack to the pool and parks the ServerThread for reuse.
  void Recycle(ServerThread* thread);

  // Number of live (non-recycled) threads.
  size_t live_threads() const { return live_; }
  size_t stacks_allocated() const { return stack_pool_.allocated(); }

 private:
  static void ThreadEntry(void* arg);

  ContextBackend backend_;
  StackPool stack_pool_;
  Context host_context_;
  ServerThread* current_ = nullptr;
  std::vector<std::unique_ptr<ServerThread>> all_threads_;
  std::vector<ServerThread*> parked_;  // recycled, ready for Create to reuse
  size_t live_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace dfil::threads

#endif  // DFIL_THREADS_SERVER_THREAD_H_
