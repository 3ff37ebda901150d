#include "src/core/forkjoin.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/node_runtime.h"

namespace dfil::core {
namespace {

struct ShipBody {
  uint64_t fn;
  FjArgs args;
  NodeId origin;
  uint64_t cell_addr;
};

struct ResultBody {
  uint64_t cell_addr;
  FjResult result;
};

}  // namespace

FjEngine::FjEngine(NodeRuntime* rt) : rt_(rt) { RegisterServices(); }

void FjEngine::RegisterServices() {
  net::PacketEndpoint& pk = rt_->packet();

  // A filament shipped to us by the distribution tree. Enqueuing is a mutation of the thread
  // queues, so this service is non-idempotent (duplicates would run the filament twice).
  pk.RegisterService(
      net::Service::kForkShip,
      [this](NodeId src, net::WireReader body, net::ReplyWriter&) {
        (void)src;
        const auto ship = body.Get<ShipBody>();
        queue_.push_back(Task{reinterpret_cast<FjFn>(ship.fn), ship.args, ship.origin,
                              ship.cell_addr});
        got_first_work_ = true;
        steal_backoff_ = kStealRetry;  // fresh work: poll eagerly again
        EnsureWorkerForQueue();
        return true;  // an empty ack
      },
      /*idempotent=*/false);

  // A join result coming home. Also non-idempotent: it completes a cell exactly once.
  pk.RegisterService(
      net::Service::kJoinResult,
      [this](NodeId src, net::WireReader body, net::ReplyWriter&) {
        (void)src;
        const auto res = body.Get<ResultBody>();
        auto* cell = reinterpret_cast<JoinCell*>(res.cell_addr);
        DFIL_CHECK(!cell->done) << "join cell completed twice";
        cell->result = res.result;
        cell->done = true;
        rt_->WakeWaiter(cell->waiter);  // FIFO: the front slot is reserved for page-arrival wakes
        return true;  // an empty ack
      },
      /*idempotent=*/false);

  // A steal request. Handing over a queued filament mutates the thread queues: non-idempotent,
  // and ignored while this node is inside a critical section.
  pk.RegisterService(
      net::Service::kStealWork,
      [this](NodeId src, net::WireReader body, net::ReplyWriter& reply) {
        (void)src;
        (void)body;
        rt_->fil_stats().steals_attempted_on_us++;
        last_steal_demand_ = rt_->Clock();
        net::WireWriter& w = reply.Body(sizeof(uint8_t) + sizeof(ShipBody));
        if (phase_active_ && !terminated_ &&
            queue_.size() >= static_cast<size_t>(kStealMinSurplus)) {
          const Task task = queue_.pop_front();  // oldest = coarsest work
          w.Put(uint8_t{1});
          w.Put(ShipBody{reinterpret_cast<uint64_t>(task.fn), task.args, task.origin,
                         task.cell_addr});
        } else {
          w.Put(uint8_t{0});
        }
        return true;
      },
      /*idempotent=*/false);

  // Termination of the fork/join phase (root join completed on node 0).
  rt_->RegisterBroadcastHandler(net::Service::kTerminate, [this](net::WireReader) {
    terminated_ = true;
    WakeAllIdle();
  });
}

FjResult FjEngine::Run(FjFn root, const FjArgs& args) {
  threads::ServerThread* self = rt_->CurrentThread();
  DFIL_CHECK(self != nullptr);
  DFIL_CHECK(!phase_active_);
  phase_active_ = true;
  terminated_ = false;
  ship_next_ = true;
  got_first_work_ = rt_->id() == 0;
  next_victim_ = (rt_->id() + 1) % rt_->config().nodes;
  steal_allowed_at_ = rt_->Clock() + kStealGrace;
  steal_backoff_ = kStealRetry;
  last_steal_demand_ = rt_->Clock() - Seconds(1.0);
  // Largest subtree first (paper Figure 2), so the first fork travels farthest and the number of
  // working nodes doubles each step.
  const std::vector<NodeId> children = BinomialChildren(rt_->id(), rt_->config().nodes);
  tree_children_.assign(children.rbegin(), children.rend());

  FjResult result{};
  if (rt_->id() == 0) {
    rt_->Charge(TimeCategory::kFilamentExec, rt_->costs().filament_create);
    rt_->fil_stats().filaments_created++;
    result = root(rt_->env(), args);
    // Root join complete: every descendant filament has finished, everywhere.
    terminated_ = true;
    rt_->BroadcastToPeers(net::Service::kTerminate, {});
    WakeAllIdle();
  } else {
    // Non-root mains serve the queue as ordinary workers until termination.
    ++active_workers_;
    workers_.push_back(self);
    WorkerLoop(/*is_main=*/true);
    --active_workers_;
    workers_.erase(std::find(workers_.begin(), workers_.end(), self));
  }

  // Wait for any helper workers this node spawned to wind down.
  while (active_workers_ > 0) {
    DFIL_CHECK(winddown_waiter_ == nullptr);
    winddown_waiter_ = self;
    rt_->BlockCurrent(WaitKind::kJoin);
  }
  steal_timer_.Cancel();
  phase_active_ = false;
  rt_->Reduce(0.0, ReduceOp::kBarrier);
  return result;
}

FjHandle FjEngine::ForkSlow(FjFn fn, const FjArgs& args) {
  DFIL_CHECK(phase_active_) << "Fork outside RunForkJoin";
  FilamentStats& fs = rt_->fil_stats();

  // Phase 1: sender-initiated tree distribution — of each fork pair, ship one, keep one.
  if (!tree_children_.empty() && ship_next_) {
    ship_next_ = false;
    const NodeId child = tree_children_.front();
    tree_children_.erase(tree_children_.begin());
    JoinCell* cell = NewCell();
    net::WireWriter w;
    w.Put(ShipBody{reinterpret_cast<uint64_t>(fn), args, rt_->id(),
                   reinterpret_cast<uint64_t>(cell)});
    fs.forks_sent++;
    rt_->packet().SendRequest(child, net::Service::kForkShip, w.Take(), nullptr,
                              TimeCategory::kSyncOverhead);
    return FjHandle{cell, {}};
  }
  ship_next_ = true;

  // Otherwise a real local filament: Fork has already pruned every fork that it could, in this
  // same state. Creating it mutates the thread queues — a critical section (a single flag
  // assignment each way); concurrent steal requests are deferred meanwhile.
  JoinCell* cell = NewCell();
  rt_->EnterCritical();
  queue_.push_back(Task{fn, args, rt_->id(), reinterpret_cast<uint64_t>(cell)});
  rt_->Charge(TimeCategory::kFilamentExec, rt_->costs().filament_create);
  rt_->ExitCritical();
  fs.filaments_created++;
  fs.forks_local++;
  EnsureWorkerForQueue();
  return FjHandle{cell, {}};
}

FjResult FjEngine::JoinSlow(FjHandle& handle) {
  JoinCell* cell = handle.cell;
  threads::ServerThread* self = rt_->CurrentThread();

  // Self-service: if the child is still sitting in our local queue (not stolen, not picked up by
  // another worker), run it inline right now instead of blocking — the overwhelmingly common
  // case, and it turns the fork/join pair into what the paper calls "joins into returns" without
  // giving up stealability in the window between Fork and Join.
  if (!cell->done) {
    const auto cell_addr = reinterpret_cast<uint64_t>(cell);
    for (size_t i = queue_.size(); i-- > 0;) {
      if (queue_[i].cell_addr == cell_addr && queue_[i].origin == rt_->id()) {
        const Task task = queue_[i];
        rt_->EnterCritical();
        queue_.erase(i);
        rt_->ExitCritical();
        Execute(task);
        break;
      }
    }
  }
  while (!cell->done) {
    DFIL_CHECK(cell->waiter == nullptr);
    // While this thread waits, another server thread must keep the local queue moving. Spawning
    // one charges virtual time and may yield — the result can arrive during that yield, before a
    // waiter is registered — so re-check before committing to block.
    EnsureWorkerForQueue(self);
    if (cell->done) {
      break;
    }
    cell->waiter = self;
    rt_->BlockCurrent(WaitKind::kJoin);
  }
  const FjResult result = cell->result;
  spare_cells_.emplace_back(cell);
  handle.cell = nullptr;
  return result;
}

void FjEngine::TaskRing::erase(size_t i) {
  for (size_t j = i + 1; j < size(); ++j) {
    (*this)[j - 1] = (*this)[j];
  }
  --tail_;
}

void FjEngine::TaskRing::Grow() {
  std::vector<Task> grown(std::max<size_t>(16, 2 * slots_.size()));
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    grown[i] = (*this)[i];
  }
  slots_ = std::move(grown);
  mask_ = slots_.size() - 1;
  head_ = 0;
  tail_ = n;
}

JoinCell* FjEngine::NewCell() {
  if (spare_cells_.empty()) {
    return new JoinCell();
  }
  JoinCell* cell = spare_cells_.back().release();
  spare_cells_.pop_back();
  *cell = JoinCell{};
  return cell;
}

void FjEngine::WorkerLoop(bool is_main) {
  for (;;) {
    if (!queue_.empty()) {
      rt_->EnterCritical();
      const Task task = queue_.pop_back();  // newest first: depth-first keeps the working set small
      rt_->ExitCritical();
      Execute(task);
      continue;
    }
    if (terminated_) {
      return;
    }
    if (CanStealNow()) {
      if (TrySteal()) {
        steal_backoff_ = kStealRetry;
        continue;
      }
      // Full denial round: back off so the busy nodes are not flooded with hopeless polls (the
      // paper's §4.3 observation about load-balance denials).
      steal_backoff_ = std::min<SimTime>(steal_backoff_ * 2, kStealRetry * 16);
    }
    if (terminated_) {
      return;
    }
    if (!is_main && idle_.size() >= 4) {
      // Enough idle workers already parked: retire this helper so the server-thread pool (and
      // its stacks) stays bounded over long fork/join phases.
      return;
    }
    // Idle: wait for shipped work, a steal retry tick, or termination.
    threads::ServerThread* self = rt_->CurrentThread();
    idle_.push_back(self);
    if (CanStealNow()) {
      ArmStealRetry();
    }
    rt_->BlockCurrent(WaitKind::kJoin);
  }
}

void FjEngine::Execute(const Task& task) {
  rt_->Charge(TimeCategory::kFilamentExec, rt_->costs().filament_switch);
  rt_->fil_stats().filaments_run++;
  rt_->TraceBegin("fj", "task");
  const FjResult result = task.fn(rt_->env(), task.args);
  rt_->TraceEnd();
  Deliver(task, result);
}

void FjEngine::Deliver(const Task& task, const FjResult& result) {
  if (task.origin == rt_->id()) {
    auto* cell = reinterpret_cast<JoinCell*>(task.cell_addr);
    DFIL_CHECK(!cell->done);
    cell->result = result;
    cell->done = true;
    rt_->WakeWaiter(cell->waiter);
    return;
  }
  net::WireWriter w;
  w.Put(ResultBody{task.cell_addr, result});
  rt_->packet().SendRequest(task.origin, net::Service::kJoinResult, w.Take(), nullptr,
                            TimeCategory::kSyncOverhead);
}

void FjEngine::EnsureWorkerForQueue(const threads::ServerThread* about_to_block) {
  if (queue_.empty()) {
    return;
  }
  if (!idle_.empty()) {
    WakeOneIdle();
    return;
  }
  // Spawn only when every live worker is blocked — otherwise one of them will reach the queue.
  for (const threads::ServerThread* w : workers_) {
    if (w == about_to_block) {
      continue;
    }
    if (w->state() == threads::ThreadState::kReady ||
        w->state() == threads::ThreadState::kRunning) {
      return;
    }
  }
  threads::ServerThread* t = rt_->SpawnThread([this] {
    ++active_workers_;
    WorkerLoop(/*is_main=*/false);
    --active_workers_;
    workers_.erase(std::find(workers_.begin(), workers_.end(), rt_->CurrentThread()));
    if (active_workers_ == 0 && winddown_waiter_ != nullptr) {
      threads::ServerThread* waiter = winddown_waiter_;
      winddown_waiter_ = nullptr;
      rt_->Wake(waiter);
    }
  });
  workers_.push_back(t);
}

void FjEngine::WakeOneIdle() {
  if (idle_.empty()) {
    return;
  }
  threads::ServerThread* t = idle_.back();
  idle_.pop_back();
  rt_->WakeAtTail(t);
}

void FjEngine::WakeAllIdle() {
  while (!idle_.empty()) {
    WakeOneIdle();
  }
}

bool FjEngine::CanStealNow() const {
  if (!rt_->config().fj.steal_enabled || !phase_active_ || terminated_) {
    return false;
  }
  // Paper §2.3: a node steals only when it has no new filaments and none suspended on a page.
  if (!queue_.empty() || rt_->dsm().pending_fetches() > 0) {
    return false;
  }
  // Don't flood the root before the distribution tree has reached us (unless it is overdue).
  return got_first_work_ || rt_->Clock() >= steal_allowed_at_;
}

bool FjEngine::TrySteal() {
  const int p = rt_->config().nodes;
  FilamentStats& fs = rt_->fil_stats();
  for (int i = 0; i < p - 1; ++i) {
    const NodeId victim = next_victim_;
    next_victim_ = (next_victim_ + 1) % p;
    if (next_victim_ == rt_->id()) {
      next_victim_ = (next_victim_ + 1) % p;
    }
    if (victim == rt_->id()) {
      continue;
    }
    fs.steals_attempted++;
    net::Payload reply =
        rt_->CallService(victim, net::Service::kStealWork, {}, TimeCategory::kSyncOverhead);
    net::WireReader r(reply);
    if (r.Get<uint8_t>() != 0) {
      const auto ship = r.Get<ShipBody>();
      queue_.push_back(Task{reinterpret_cast<FjFn>(ship.fn), ship.args, ship.origin,
                            ship.cell_addr});
      got_first_work_ = true;
      fs.steals_succeeded++;
      return true;
    }
    fs.steals_denied++;
    if (terminated_) {
      return false;
    }
  }
  return false;
}

void FjEngine::ArmStealRetry() {
  if (steal_timer_.active()) {
    return;
  }
  steal_timer_ = rt_->machine().ScheduleTimer(
      rt_->id(), rt_->Clock() + steal_backoff_, [this] {
        steal_timer_.Release();
        if (terminated_ || !phase_active_ || idle_.empty()) {
          return;  // a worker that idles again re-arms the timer itself
        }
        WakeOneIdle();
        ArmStealRetry();
      });
}

void FjEngine::OnWorkerBlocked() {
  if (!phase_active_) {
    return;
  }
  EnsureWorkerForQueue();
}

}  // namespace dfil::core
