// NodeRuntime: one simulated workstation running the Distributed Filaments kernel.
//
// Implements dsm::DsmHost, and through it net::PacketHost and sim::NodeHost. Owns the node's
// server threads and their (non-preemptive, SR-style) scheduler, the Packet endpoint, the DSM
// node, the pool engine (RTC/iterative filaments), the fork/join engine, the tournament-reduction
// engine, and the explicit-message channels used by the coarse-grain comparison programs.
//
// Scheduling contract: the Machine resumes this node via Step(), which switches into a server
// thread; the thread gives the processor back when it blocks, finishes, or — mid-charge — when a
// pending external event (message/timer) must be dispatched, in which case it is resumed first
// afterwards (interrupt semantics: handlers run "under" the interrupted thread, which then
// continues; no reschedule happens on an interrupt, the scheduler is non-preemptive).
#ifndef DFIL_CORE_NODE_RUNTIME_H_
#define DFIL_CORE_NODE_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/intrusive_list.h"
#include "src/common/ledger.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/forkjoin.h"
#include "src/core/node_env.h"
#include "src/dsm/dsm_node.h"
#include "src/net/packet.h"
#include "src/sim/machine.h"
#include "src/threads/server_thread.h"

namespace dfil::core {

class PoolEngine;

class NodeRuntime final : public dsm::DsmHost {
 public:
  NodeRuntime(NodeId id, const ClusterConfig& config, sim::Machine* machine,
              const dsm::GlobalLayout* layout);
  ~NodeRuntime() override;

  // Installs the node's main program; it runs as the first server thread.
  void SetMain(std::function<void()> body);

  // --- sim::NodeHost ---
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return resume_first_ != nullptr || !ready_.empty(); }
  bool Done() const override { return main_done_; }
  void Step() override;
  void AdvanceTo(SimTime t) override;
  void OnDatagram(sim::Datagram d) override;
  std::string DescribeBlocked() const override;

  // --- Virtual time ---
  // Advances this node's clock by `cost`, attributing it to `category`. When called from a server
  // thread, yields to the machine whenever an external event falls due mid-charge, so message
  // handlers interrupt computation at exact virtual times. A server-thread charge that fits under
  // the charge limit is booked inline: it is the first iteration of ChargeSlow's loop, which ends
  // there on the same condition.
  void Charge(TimeCategory category, SimTime cost) override {
    DFIL_DCHECK(cost >= 0);
    threads::ServerThread* self = threads_.current();
    if (self != nullptr && cost > 0) {
      const SimTime limit = machine_->ChargeLimit(id_);
      if (limit >= clock_ + cost || limit == kSimTimeNever) {
        clock_ += cost;
        ledger_.AddCharge(category, self->profile_pool(), cost);
        return;
      }
    }
    ChargeSlow(category, cost);
  }

  // --- Scheduling primitives (used by the engines and the DSM) ---
  // Marks the current server thread blocked on (kind, detail) and suspends it; the caller has
  // already recorded it on some wait queue. Returns when the thread is woken.
  void BlockCurrent(WaitKind kind, uint64_t detail = 0) override;
  // Makes `t` runnable, placed by the configured wake policy (paper: front = fork/join
  // anti-thrashing; tail = iterative frontloading). Page arrivals wake this way.
  void Wake(threads::ServerThread* t) override { WakeAt(t, config_.wake_at_front); }
  // Every other wake is FIFO, or the ready queue degenerates into a LIFO that can starve resumed
  // workers indefinitely.
  void WakeAtTail(threads::ServerThread* t) { WakeAt(t, /*front=*/false); }
  // Wakes the thread parked in `slot`, if any, at the tail, and empties the slot.
  void WakeWaiter(threads::ServerThread*& slot) {
    if (slot != nullptr) {
      threads::ServerThread* t = slot;
      slot = nullptr;
      WakeAtTail(t);
    }
  }
  // Creates a server thread running `body` and enqueues it (charges creation cost).
  threads::ServerThread* SpawnThread(std::function<void()> body);
  threads::ServerThread* CurrentThread() override { return threads_.current(); }
  // A thread is about to block on a page fault: the pool and fork/join engines start a
  // replacement server thread so the processor keeps working.
  void BeforeFaultBlock(PageId page) override;
  // The last outstanding fetch completed: wakes the thread waiting in WaitForFetchDrain.
  void FetchesDrained() override;

  // Sends a reliable request and blocks the calling server thread until the reply arrives.
  net::Payload CallService(NodeId dst, net::Service service, net::Payload body,
                           TimeCategory charge_as);

  // --- Reductions (tournament with broadcast dissemination, paper §4.5 / [HFM88]) ---
  double Reduce(double value, ReduceOp op);

  // --- Broadcasts from one node to all others (the done of a barrier, fork/join termination) ---
  // Sends `body` to every other node: one raw broadcast, or under reliable_broadcast one reliable
  // request to each other node in id order. Sends nothing on a one-node cluster.
  void BroadcastToPeers(net::Service service, const net::Payload& body);
  // Registers `fn` for `service` both as the raw handler and as the idempotent service, so it
  // runs whichever way BroadcastToPeers sent the message.
  void RegisterBroadcastHandler(net::Service service, std::function<void(net::WireReader)> fn);

  // --- Explicit message channels (raw UDP semantics, for the CG programs) ---
  void ChannelSend(NodeId dst, uint32_t tag, std::span<const std::byte> bytes);
  void ChannelBroadcast(uint32_t tag, std::span<const std::byte> bytes);
  std::vector<std::byte> ChannelRecv(NodeId src, uint32_t tag);
  // Non-blocking receive (polling a UDP socket).
  std::optional<std::vector<std::byte>> ChannelTryRecv(NodeId src, uint32_t tag);
  // Blocks until any channel message arrives at this node (select()-style wait).
  void WaitAnyChannel();

  // --- Critical sections ---
  void EnterCritical() { in_critical_ = true; }
  void ExitCritical() { in_critical_ = false; }
  bool InCriticalSection() const override { return in_critical_; }

  // --- Tracing (no-ops unless ClusterConfig::trace_enabled) ---
  void SetTrace(TraceRecorder* trace) { tracer_.SetRecorder(trace); }
  void TraceBegin(const char* category, std::string name) {
    tracer_.Begin(category, std::move(name));
  }
  void TraceEnd() { tracer_.End(); }
  void TraceInstant(const char* category, std::string name) {
    tracer_.Instant(category, std::move(name));
  }
  // The node's causal tracer (trace-id context + span emission), shared with packet_ and dsm_.
  NodeTracer& tracer() { return tracer_; }
  // Live histograms and runtime counters; flattened with the stats structs by metrics_io.
  MetricsRegistry& metrics() { return metrics_; }

  // The node's time ledger (common/ledger.h): Figure 10, run/serve/wait, per-pool rows, wait
  // events and the flight-recorder ring.
  const TimeLedger& ledger() const { return ledger_; }
  // Books the still-unclassified trailing scheduler gap as idle wait, making run + serve + wait
  // equal the final clock exactly. Called once by Cluster::Run at the end.
  void FinalizeLedger();

  // --- Accessors ---
  NodeEnv& env() { return env_; }
  const ClusterConfig& config() const { return config_; }
  sim::Machine& machine() { return *machine_; }
  const sim::CostModel& costs() const { return machine_->costs(); }
  dsm::DsmNode& dsm() { return *dsm_; }
  net::PacketEndpoint& packet() { return *packet_; }
  PoolEngine& pools() { return *pools_; }
  FjEngine& fj() { return *fj_; }
  threads::ThreadSystem& threads() { return threads_; }

  FilamentStats& fil_stats() { return fil_stats_; }
  SimTime main_finished_at() const { return main_finished_at_; }

 private:
  friend class PoolEngine;
  friend class FjEngine;

  // Charge() in handler context, of zero cost, or past the charge limit (charging up to each
  // limit in turn and yielding there).
  void ChargeSlow(TimeCategory category, SimTime cost);
  // Charge() helper: returns to the machine so a due event can dispatch; resumes afterwards.
  void YieldForEvent();

  // Makes blocked `t` ready at the front or the tail of the ready queue, booking the pending
  // scheduler gap under its wait kind and its blocked interval.
  void WakeAt(threads::ServerThread* t, bool front);

  // Blocks the current thread until there are no outstanding page fetches (paper §3: nodes delay
  // at synchronization points until all outstanding page requests are satisfied).
  void WaitForFetchDrain();

  // Reduction plumbing.
  // Fills reduce_steps_ and barrier_parent_ from the configured barrier kind.
  void BuildReduceSchedule();
  void RegisterReduceServices();
  // True when a reduce-up's ack is elided (coalescing under a barrier with a done broadcast): the
  // done is the ack, and a retransmitted up is answered with the done directly.
  bool ElideUpAcks() const;
  void SendReduceValue(NodeId dst, uint64_t epoch, int round, double value);
  // The trailer of a reduce-up after (epoch, round, value): the epoch of the gated diff merge it
  // piggybacks on, then under the balancer the sender's load samples. Without the balancer the
  // epoch word is present only when nonzero; with it the word is always there (0 = none).
  void AppendUpTrailer(net::WireWriter& w, uint64_t epoch);
  // Reads AppendUpTrailer's trailer from `src`'s up for `epoch`. True when the contribution must
  // wait for its gated merge to apply here; otherwise keeps the carried load samples.
  bool DeferUp(NodeId src, uint64_t epoch, net::WireReader& body);
  // Appends the done message: (epoch, value) plus, under the balancer, the plan trailer.
  void WriteDone(net::WireWriter& w, uint64_t epoch, double value) const;
  // Takes in a done, from the broadcast or from the reply to a retransmitted up.
  void AcceptDone(net::WireReader body);
  double WaitReduceUp(uint64_t epoch, int round, NodeId from);
  double WaitReduceDone(uint64_t epoch);
  static double Combine(double a, double b, ReduceOp op);

  // Load-balancer plumbing (config_.balancer; every hook is inert while disabled, keeping the
  // wire format and schedule byte-identical to a balancer-free build).
  void RegisterMigrateService();
  // Snapshots this node's per-epoch ledger deltas into balance_samples_[epoch] before any
  // reduce-up for `epoch` goes out.
  void RecordLoadSample(uint64_t epoch, SimTime entered);
  // Champion only: runs the balancer once all n samples for `epoch` arrived.
  void MaybeEmitPlan(uint64_t epoch);
  // Appends the plan trailer (u8 has_plan [+ epoch/src/dst]) to a done payload / done-carrying
  // reply; writes has_plan=0 unless last_plan_ is exactly `epoch`'s plan.
  void AppendPlan(net::WireWriter& w, uint64_t epoch) const;
  // Parses the plan trailer; keeps the newest plan seen (stale dones carry stale plans).
  void ParsePlan(net::WireReader& r);
  // End of Reduce: source extracts + ships its batch, destination arms the sweep-entry wait.
  // Exactly-once per plan via last_plan_applied_.
  void ApplyPendingPlan();

  NodeId id_;
  ClusterConfig config_;
  sim::Machine* machine_;
  SimTime clock_ = 0;
  SimTime pending_gap_ = 0;  // idle time awaiting classification at the next wake
  bool main_done_ = false;
  SimTime main_finished_at_ = 0;
  bool in_critical_ = false;

  threads::ThreadSystem threads_;
  IntrusiveList<threads::ServerThread, &threads::ServerThread::queue_link> ready_;
  threads::ServerThread* resume_first_ = nullptr;  // mid-charge thread, resumed before any other
  std::vector<threads::ServerThread*> blocked_;    // bookkeeping for deadlock reports

  std::unique_ptr<net::PacketEndpoint> packet_;
  std::unique_ptr<dsm::DsmNode> dsm_;
  std::unique_ptr<PoolEngine> pools_;
  std::unique_ptr<FjEngine> fj_;
  NodeEnv env_;

  // Reduction state.
  uint64_t reduce_epoch_ = 0;
  // (epoch, round, sender) -> value received for this reduction step.
  std::map<std::tuple<uint64_t, int, NodeId>, double> reduce_inbox_;
  std::map<uint64_t, double> reduce_done_;                   // epoch -> disseminated result
  threads::ServerThread* reduce_waiter_ = nullptr;
  threads::ServerThread* drain_waiter_ = nullptr;
  // Coalescing sync-batch state: the unacked (elided-ack) reduce-up awaiting the done broadcast,
  // and the last disseminated result — the answer given to retransmitted ups after done.
  uint64_t pending_up_req_ = 0;
  uint64_t last_done_epoch_ = 0;
  double last_done_value_ = 0;

  // Channels: (src, tag) -> queued payloads / waiting receiver.
  struct Channel {
    std::deque<std::vector<std::byte>> messages;
    threads::ServerThread* waiter = nullptr;
  };
  std::map<std::pair<NodeId, uint32_t>, Channel> channels_;
  threads::ServerThread* any_channel_waiter_ = nullptr;

  uint64_t CurrentTid() {
    threads::ServerThread* t = threads_.current();
    return t != nullptr ? t->id() : 0;
  }

  NodeTracer tracer_;
  MetricsRegistry metrics_;
  FilamentStats fil_stats_;
  TimeLedger ledger_;
  // Prior-epoch counter snapshot, so Reduce can record per-epoch deltas.
  struct EpochBase {
    uint64_t faults = 0;
    uint64_t diff_bytes = 0;
    uint64_t datagrams = 0;
    SimTime wait = 0;
    SimTime serve = 0;
  } epoch_base_;
  void RecordEpochSnapshot(uint64_t epoch, SimTime entered);

  // Load-balancer state (empty/zero while config_.balancer.enabled is false).
  std::unique_ptr<LoadBalancer> balancer_;  // constructed on the champion (node 0) only
  // epoch -> (node -> sample): own sample plus every sample carried by received reduce-ups.
  std::map<uint64_t, std::map<int32_t, LoadSample>> balance_samples_;
  // Ledger totals at the previous sync point, so samples carry per-epoch deltas.
  struct BalanceBase {
    SimTime run = 0;
    SimTime wait = 0;
    SimTime serve = 0;
  } balance_base_;
  std::optional<RebalancePlan> last_plan_;  // newest plan seen (emitted here or off a done)
  uint64_t last_plan_applied_ = 0;          // highest plan epoch acted on (src/dst roles)
  uint64_t migrate_applied_epoch_ = 0;      // highest kFilamentMigrate epoch integrated
  HistogramRef barrier_wait_us_{"sync.barrier_wait_us"};

  // This node's reduction schedule (BuildReduceSchedule), walked in order by Reduce: send the
  // running value to `peer`, or combine the value `peer` sends, in wire round `round`.
  struct ReduceStep {
    NodeId peer;
    int round;
    bool send;
  };
  std::vector<ReduceStep> reduce_steps_;
  // This node's parent in the reduction tree: it awaits the done after its last step. kNoNode at
  // the root and under the dissemination barrier, which has no tree. The DSM gates its diff merge
  // to this node.
  NodeId barrier_parent_ = kNoNode;
};

// Node `node`'s children in the binomial tree over `nodes` nodes rooted at 0 (paper Figure 2):
// node + 1, node + 2, node + 4, ..., nearest first, each below node's lowest set bit (below
// `nodes` at the root) and below `nodes`. The tournament barrier combines them in this order; the
// fork/join engine ships work to them farthest first.
std::vector<NodeId> BinomialChildren(NodeId node, int nodes);

inline void NodeEnv::ChargeWork(SimTime cost) { rt_->Charge(TimeCategory::kWork, cost); }
inline FjHandle NodeEnv::Fork(FjFn fn, const FjArgs& args) { return rt_->fj().Fork(fn, args); }
inline FjResult NodeEnv::Join(FjHandle& handle) { return rt_->fj().Join(handle); }

// Dynamic pruning: enough local work queued to keep everyone busy — a fork is now a call.
// "Everyone busy" is a cluster property: while steal requests keep arriving, other nodes are NOT
// busy, so pruning stays off and forks remain visible to thieves (bounded by a queue cap). A fork
// with a tree child left to ship to is never pruned. Outside a fork/join phase, ForkSlow dies
// (last_steal_demand_ is only set for a phase, so the phase is tested first).
inline FjHandle FjEngine::Fork(FjFn fn, const FjArgs& args) {
  const ForkJoinConfig& fj = rt_->config().fj;
  const bool prune =
      phase_active_ && tree_children_.empty() &&
      queue_.size() >= static_cast<size_t>(fj.prune_threshold) &&
      !(fj.steal_enabled && rt_->Clock() - last_steal_demand_ < Milliseconds(100.0) &&
        queue_.size() < 64);
  if (!prune) {
    return ForkSlow(fn, args);
  }
  ship_next_ = true;  // what ForkSlow does for a fork it does not ship
  rt_->fil_stats().forks_pruned++;
  rt_->Charge(TimeCategory::kFilamentExec, rt_->costs().fork_inline);
  FjHandle h{nullptr, {}};
  h.inline_result = fn(rt_->env(), args);
  return h;
}

}  // namespace dfil::core

#endif  // DFIL_CORE_NODE_RUNTIME_H_
