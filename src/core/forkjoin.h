// FjEngine: fork/join filaments (paper §2.3).
//
// The computation starts as a single root filament on node 0. Work spreads in two phases:
//
//  1. Sender-initiated tree distribution: nodes form a binomial tree (paper Figure 2). Of each
//     pair of forks a node creates, one is shipped to its next unused tree child and one is kept,
//     so the number of working nodes doubles each step until every node has work.
//  2. Receiver-initiated stealing (optional): a node with no filaments and none suspended on a
//     page queries other nodes round-robin; victims with surplus hand over their oldest (coarsest)
//     queued filament. Balanced workloads disable this — the page traffic outweighs the gain.
//
// Dynamic pruning: once the local queue is deep enough that everyone is busy, forks turn into
// plain procedure calls and joins into returns.
//
// Join results travel back to the forking node as Packet requests; the anti-thrashing mechanisms
// (Mirage hold window in the DSM, wake-at-front scheduling) keep write-shared pages from
// ping-ponging.
#ifndef DFIL_CORE_FORKJOIN_H_
#define DFIL_CORE_FORKJOIN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/core/fj_types.h"
#include "src/sim/event_queue.h"
#include "src/threads/server_thread.h"

namespace dfil::core {

class NodeRuntime;

// A pending join: filled in either locally or by a kJoinResult message from the executing node.
struct JoinCell {
  bool done = false;
  FjResult result{};
  threads::ServerThread* waiter = nullptr;
};

class FjEngine {
 public:
  explicit FjEngine(NodeRuntime* rt);

  // Collective entry point: every node calls this; node 0 runs `root`. Returns the root's result
  // on node 0 (zeroes elsewhere). Ends with a barrier.
  FjResult Run(FjFn root, const FjArgs& args);

  // Fork a child filament (ship / enqueue / pruned inline call) and join on its result. Fork is
  // defined inline after NodeRuntime (node_runtime.h): a pruned fork and its join run inline, and
  // every other case goes to ForkSlow / JoinSlow.
  inline FjHandle Fork(FjFn fn, const FjArgs& args);
  FjResult Join(FjHandle& handle) {
    if (handle.cell == nullptr) {
      return handle.inline_result;  // pruned fork: join is a return
    }
    return JoinSlow(handle);
  }

  // Runtime hook: an fj worker is about to suspend on a page fault; keep the queue served.
  void OnWorkerBlocked();

  // Introspection for tests.
  size_t queue_depth() const { return queue_.size(); }
  const std::vector<NodeId>& tree_children() const { return tree_children_; }
  bool phase_active() const { return phase_active_; }

 private:
  struct Task {
    FjFn fn;
    FjArgs args;
    NodeId origin;       // node holding the join cell
    uint64_t cell_addr;  // JoinCell* on the origin node
  };

  // Fork() of a fork that is not pruned: ship it to a tree child, or queue a local filament.
  FjHandle ForkSlow(FjFn fn, const FjArgs& args);
  // A cleared join cell: a finished one from spare_cells_, or a new one.
  JoinCell* NewCell();
  // Join() of a fork that was not pruned: run the child here if it is still queued, else block.
  FjResult JoinSlow(FjHandle& handle);
  void RegisterServices();
  void WorkerLoop(bool is_main);
  void Execute(const Task& task);
  void Deliver(const Task& task, const FjResult& result);
  void EnsureWorkerForQueue(const threads::ServerThread* about_to_block = nullptr);
  void WakeOneIdle();
  void WakeAllIdle();
  bool CanStealNow() const;
  bool TrySteal();
  void ArmStealRetry();

  NodeRuntime* rt_;
  std::deque<Task> queue_;  // local fork/join filaments: LIFO execution, FIFO stealing
  std::vector<NodeId> tree_children_;
  bool ship_next_ = true;  // of each fork pair, ship one and keep one

  bool phase_active_ = false;
  bool terminated_ = false;
  bool got_first_work_ = false;
  SimTime steal_allowed_at_ = 0;

  std::vector<threads::ServerThread*> workers_;  // live worker threads (includes node mains)
  std::vector<threads::ServerThread*> idle_;
  threads::ServerThread* winddown_waiter_ = nullptr;
  int active_workers_ = 0;
  NodeId next_victim_ = 0;
  sim::EventHandle steal_timer_;
  // Exponential backoff for steal polling: full denial rounds double the retry interval (up to
  // 16x) so idle nodes stop burning the busy victim's CPU with hopeless polls; any successful
  // steal or incoming work resets it.
  SimTime steal_backoff_ = 0;
  // Virtual time of the last incoming steal request: while thieves are asking, pruning is
  // suspended so coarse forks stay visible as stealable filaments (the paper's pruning condition
  // is "enough work to keep all nodes busy" — a global property, not a local queue depth).
  SimTime last_steal_demand_ = kSimTimeNever * -1;
  // Join cells whose join has returned, kept for NewCell. A cell comes back only there, after
  // the last read of it, so an address in a kForkShip or kJoinResult body never names a reused
  // cell. (Last, after the members the inline Fork reads.)
  std::vector<std::unique_ptr<JoinCell>> spare_cells_;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_FORKJOIN_H_
