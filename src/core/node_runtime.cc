#include "src/core/node_runtime.h"

#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/forkjoin.h"
#include "src/core/pool_engine.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/page_protocol.h"

namespace dfil::core {

// Oracle sweep at a globally quiescent point: the combining node of a tournament/central barrier
// holds every contribution, so every node has drained its outstanding fetches (WaitForFetchDrain)
// and run AtSyncPoint before sending up — the cluster-wide page state is stable until the
// dissemination goes out. The dissemination barrier has no such single point, so it never sweeps.
#define DFIL_ORACLE_SWEEP()                        \
  do {                                             \
    if (config_.coherence_oracle != nullptr) {     \
      config_.coherence_oracle->AtQuiescentPoint(); \
    }                                              \
  } while (false)

namespace {

// This node's parent in the reduction tree, or kNoNode at the root. With coalescing on, the diff
// protocol gates its merge to the parent (ack elided, retransmission canceled by the done
// broadcast) and the transport packs it with the reduce-up of the same sync point. The
// dissemination barrier has no parent/done structure, so nothing is gated there.
NodeId BarrierParent(NodeId id, ClusterConfig::BarrierKind barrier) {
  if (id == 0 || barrier == ClusterConfig::BarrierKind::kDissemination) {
    return kNoNode;
  }
  return barrier == ClusterConfig::BarrierKind::kCentral ? 0 : id - (id & -id);
}

}  // namespace

NodeRuntime::NodeRuntime(NodeId id, const ClusterConfig& config, sim::Machine* machine,
                         const dsm::GlobalLayout* layout)
    : id_(id), config_(config), machine_(machine), threads_(config.backend), env_(this) {
  tracer_.BindNode(id_, [this] { return CurrentTid(); }, [this] { return clock_; });
  packet_ = std::make_unique<net::PacketEndpoint>(machine_, this, config_.packet);
  packet_->set_tracer(&tracer_);
  packet_->set_metrics(&metrics_);
  packet_->set_coalesce(config_.coalesce);
  packet_->set_ledger(&ledger_);
  dsm_ = std::make_unique<dsm::DsmNode>(this, layout, packet_.get(), &machine_->costs(),
                                        config_.dsm, BarrierParent(id_, config_.barrier),
                                        &tracer_, &metrics_);
  env_.dsm_ = dsm_.get();
  env_.note_writes_ = config_.balancer.enabled;
  if (config_.coherence_oracle != nullptr) {
    dsm_->AttachOracle(config_.coherence_oracle);
  }
  pools_ = std::make_unique<PoolEngine>(this);
  fj_ = std::make_unique<FjEngine>(this);
  RegisterReduceServices();
  RegisterMigrateService();
  if (config_.balancer.enabled && id_ == 0) {
    // Both champion-structured barriers (tournament, central) combine at node 0; dissemination
    // has no champion and is rejected by ClusterConfig::Validate when the balancer is on.
    balancer_ = std::make_unique<LoadBalancer>(config_.balancer, config_.nodes);
  }

  packet_->RegisterRawHandler(
      net::Service::kAppData,
      [this](NodeId src, net::WireReader r) {
        const auto tag = r.Get<uint32_t>();
        Channel& ch = channels_[{src, tag}];
        ch.messages.emplace_back(r.Rest().begin(), r.Rest().end());  // outlives the datagram
        if (ch.waiter != nullptr) {
          threads::ServerThread* t = ch.waiter;
          ch.waiter = nullptr;
          WakeAtTail(t);
        }
        if (any_channel_waiter_ != nullptr) {
          threads::ServerThread* t = any_channel_waiter_;
          any_channel_waiter_ = nullptr;
          WakeAtTail(t);
        }
      },
      TimeCategory::kDataTransfer);
}

NodeRuntime::~NodeRuntime() = default;

void NodeRuntime::SetMain(std::function<void()> body) {
  threads::ServerThread* main = threads_.Create([this, body = std::move(body)] {
    body();
    main_done_ = true;
    main_finished_at_ = clock_;
    // Anchors the critical-path walk: the end-to-end path terminates at the latest "done".
    TraceInstant("node", "done");
  });
  ready_.PushBack(main);
}

void NodeRuntime::Step() {
  threads::ServerThread* t = resume_first_;
  if (t != nullptr) {
    resume_first_ = nullptr;
  } else {
    t = ready_.PopFront();
    if (t == nullptr) {
      return;
    }
    // Switching server threads costs real time (paper Figure 9: 48.8 us on the Sun IPC).
    Charge(TimeCategory::kFilamentExec, costs().thread_context_switch);
  }
  threads_.SwitchTo(t);
  if (t->state() == threads::ThreadState::kDone) {
    threads_.Recycle(t);
  }
}

void NodeRuntime::AdvanceTo(SimTime t) {
  if (t > clock_) {
    pending_gap_ += t - clock_;
    clock_ = t;
  }
}

void NodeRuntime::OnDatagram(sim::Datagram d) { packet_->OnDatagram(std::move(d)); }

void NodeRuntime::ChargeSlow(TimeCategory category, SimTime cost) {
  threads::ServerThread* self = threads_.current();
  if (self == nullptr) {
    // Handler (host) context: interrupt work simply extends the node's clock.
    clock_ += cost;
    ledger_.AddCharge(category, TimeLedger::kServe, cost);
    return;
  }
  SimTime remaining = cost;
  while (remaining > 0) {
    // Yield both for due events and for the causality horizon: this node must not run ahead of
    // other runnable nodes, or their sends would reach it (and reserve the shared medium) "in the
    // past".
    const SimTime limit = machine_->ChargeLimit(id_);
    if (limit >= clock_ + remaining || limit == kSimTimeNever) {
      clock_ += remaining;
      ledger_.AddCharge(category, self->profile_pool(), remaining);
      return;
    }
    if (limit > clock_) {
      const SimTime step = limit - clock_;
      remaining -= step;
      clock_ = limit;
      ledger_.AddCharge(category, self->profile_pool(), step);
    }
    YieldForEvent();
  }
}

void NodeRuntime::YieldForEvent() {
  threads::ServerThread* self = threads_.current();
  DFIL_DCHECK(self != nullptr);
  DFIL_CHECK(resume_first_ == nullptr);
  resume_first_ = self;
  self->set_state(threads::ThreadState::kReady);
  threads_.SwitchToHost();
}

void NodeRuntime::BlockCurrent(WaitKind kind, uint64_t detail) {
  threads::ServerThread* self = threads_.current();
  DFIL_CHECK(self != nullptr);
  DFIL_CHECK(self->state() == threads::ThreadState::kRunning)
      << "BlockCurrent must be called from a running server thread";
  self->set_state(threads::ThreadState::kBlocked);
  self->set_block_reason(kind, detail);
  self->set_blocked_since(clock_);
  blocked_.push_back(self);
  threads_.SwitchToHost();
}

void NodeRuntime::BeforeFaultBlock(PageId page) {
  pools_->OnThreadBlockedOnPage(page);
  fj_->OnWorkerBlocked();
}

void NodeRuntime::FetchesDrained() {
  if (drain_waiter_ != nullptr) {
    threads::ServerThread* t = drain_waiter_;
    drain_waiter_ = nullptr;
    WakeAtTail(t);
  }
}

// Page-arrival wake: placement follows the configured policy (paper: front = fork/join
// anti-thrashing, tail = iterative frontloading). All other wake paths use WakeAtTail — FIFO —
// or the ready queue degenerates into a LIFO that can starve resumed workers indefinitely.
void NodeRuntime::Wake(threads::ServerThread* t) {
  if (config_.wake_at_front) {
    WakeAtFront(t);
  } else {
    WakeAtTail(t);
  }
}

void NodeRuntime::AccountWake(threads::ServerThread* t) {
  if (pending_gap_ > 0) {
    ledger_.AddGap(t->block_kind(), pending_gap_);
    pending_gap_ = 0;
  }
  if (clock_ > t->blocked_since()) {
    ledger_.AddBlocked(t->block_kind(), t->block_detail(), t->blocked_since(), clock_,
                       t->profile_pool());
  }
  t->set_blocked_since(-1);
}

void NodeRuntime::WakeAtFront(threads::ServerThread* t) {
  DFIL_CHECK(t->state() == threads::ThreadState::kBlocked);
  for (size_t i = 0; i < blocked_.size(); ++i) {
    if (blocked_[i] == t) {
      blocked_.erase(blocked_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  AccountWake(t);
  t->set_state(threads::ThreadState::kReady);
  ready_.PushFront(t);
}

void NodeRuntime::WakeAtTail(threads::ServerThread* t) {
  DFIL_CHECK(t->state() == threads::ThreadState::kBlocked);
  for (size_t i = 0; i < blocked_.size(); ++i) {
    if (blocked_[i] == t) {
      blocked_.erase(blocked_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  AccountWake(t);
  t->set_state(threads::ThreadState::kReady);
  ready_.PushBack(t);
}

threads::ServerThread* NodeRuntime::SpawnThread(std::function<void()> body) {
  DFIL_CHECK_LT(threads_.live_threads(), static_cast<size_t>(kMaxServerThreads))
      << "node " << id_ << ": server thread limit reached";
  Charge(TimeCategory::kFilamentExec, costs().thread_create);
  threads::ServerThread* t = threads_.Create(std::move(body));
  ready_.PushBack(t);
  fil_stats_.server_threads_started++;
  return t;
}

net::Payload NodeRuntime::CallService(NodeId dst, net::Service service, net::Payload body,
                                      TimeCategory charge_as) {
  threads::ServerThread* self = threads_.current();
  DFIL_CHECK(self != nullptr) << "CallService requires a server thread";
  struct CallState {
    bool done = false;
    net::Payload reply;
  } state;
  packet_->SendRequest(
      dst, service, std::move(body),
      [this, self, &state](net::WireReader reply) {
        state.reply.assign(reply.Rest().begin(), reply.Rest().end());  // outlives the datagram
        state.done = true;
        if (self->state() == threads::ThreadState::kBlocked &&
            self->block_kind() == WaitKind::kCall) {
          WakeAtTail(self);
        }
      },
      charge_as);
  while (!state.done) {
    BlockCurrent(WaitKind::kCall, static_cast<uint64_t>(service));
  }
  return std::move(state.reply);
}

std::string NodeRuntime::DescribeBlocked() const {
  std::ostringstream os;
  os << "blocked: ";
  if (blocked_.empty()) {
    os << "(no blocked threads)";
  }
  for (const threads::ServerThread* t : blocked_) {
    os << "[t" << t->id() << " " << WaitKindName(t->block_kind()) << " " << t->block_detail()
       << "] ";
  }
  return os.str();
}

// --- Reductions ---------------------------------------------------------------------------------

void NodeRuntime::RegisterReduceServices() {
  packet_->RegisterService(
      net::Service::kReduceUp,
      [this](NodeId src, net::WireReader body) -> std::optional<net::Payload> {
        const auto epoch = body.Get<uint64_t>();
        const auto round = body.Get<int32_t>();
        const auto value = body.Get<double>();
        std::vector<LoadSample> samples;
        if (config_.balancer.enabled) {
          // Balancer wire format (config-uniform across the cluster, so the balancer-off format
          // stays byte-identical): the merge-epoch word is always present (0 = none), followed by
          // the sender's subtree of load samples.
          const auto merge_epoch = body.Get<uint64_t>();
          const auto nsamples = body.Get<uint32_t>();
          samples.reserve(nsamples);
          for (uint32_t i = 0; i < nsamples; ++i) {
            LoadSample s;
            s.node = body.Get<int32_t>();
            s.arrival = body.Get<SimTime>();
            s.run = body.Get<SimTime>();
            s.wait = body.Get<SimTime>();
            s.serve = body.Get<SimTime>();
            samples.push_back(s);
          }
          if (merge_epoch > dsm_->DiffAppliedEpoch(src)) {
            return std::nullopt;  // defer until the piggybacked gated merge applied (see below)
          }
          for (const LoadSample& s : samples) {
            balance_samples_[epoch][s.node] = s;  // idempotent under retransmitted ups
          }
        } else if (body.remaining() >= sizeof(uint64_t)) {
          // Piggybacked gated-merge epoch: the sender's diff flush travels unacked in the same
          // datagram (or an earlier one). Defer the contribution until that merge has been
          // applied here, so the champion's quiescent sweep still sees every merge even when
          // injected reordering or duplication splits the pair.
          const auto merge_epoch = body.Get<uint64_t>();
          if (merge_epoch > dsm_->DiffAppliedEpoch(src)) {
            return std::nullopt;
          }
        }
        const bool elide = config_.coalesce.enabled &&
                           config_.barrier != ClusterConfig::BarrierKind::kDissemination;
        if (elide && last_done_epoch_ >= epoch) {
          // A retransmission of a contribution this barrier already consumed (its elided ack was
          // lost on the sender): answer with the done value directly, standing in for the
          // broadcast the sender evidently also missed.
          net::WireWriter w;
          w.Put(epoch);
          w.Put(last_done_value_);
          if (config_.balancer.enabled) {
            AppendPlan(w, epoch);
          }
          return w.Take();
        }
        reduce_inbox_[{epoch, round, src}] = value;
        if (reduce_waiter_ != nullptr) {
          threads::ServerThread* t = reduce_waiter_;
          reduce_waiter_ = nullptr;
          WakeAtTail(t);
        }
        if (elide) {
          // The done broadcast is the real ack of a reduce-up; skip the empty reply datagram.
          packet_->ElideCurrentReply();
        }
        return net::Payload{};
      },
      /*idempotent=*/true);

  auto handle_done = [this](net::WireReader body) {
    const auto epoch = body.Get<uint64_t>();
    const auto value = body.Get<double>();
    if (config_.balancer.enabled) {
      ParsePlan(body);
    }
    reduce_done_[epoch] = value;
    // Only a NEW done may consume the unacked sync-point requests. Under loss a done arrives
    // again — a duplicated raw broadcast, or the reliable done request retransmitted because our
    // reply to it was lost re-runs this handler — and by then this node may already be a barrier
    // ahead, with the next epoch's reduce-up and gated merge in flight. A stale done proves
    // nothing about those; canceling them here would stop the very retransmissions that recover
    // their loss (the parent defers our up until the merge lands, so the run would wedge at the
    // retransmission limit).
    if (epoch > last_done_epoch_) {
      last_done_epoch_ = epoch;
      last_done_value_ = value;
      if (pending_up_req_ != 0) {
        // The done proves our contribution was combined; stop retransmitting the (unacked) up.
        packet_->CancelRequest(pending_up_req_);
        pending_up_req_ = 0;
      }
      dsm_->OnBarrierDone();
    }
    if (reduce_waiter_ != nullptr) {
      threads::ServerThread* t = reduce_waiter_;
      reduce_waiter_ = nullptr;
      WakeAtTail(t);
    }
  };
  packet_->RegisterRawHandler(net::Service::kReduceDone,
                              [handle_done](NodeId, net::WireReader body) { handle_done(body); });
  packet_->RegisterService(
      net::Service::kReduceDone,
      [handle_done](NodeId, net::WireReader body) -> std::optional<net::Payload> {
        handle_done(body);
        return net::Payload{};
      },
      /*idempotent=*/true);
}

double NodeRuntime::Combine(double a, double b, ReduceOp op) {
  switch (op) {
    case ReduceOp::kBarrier:
      return 0.0;
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kMin:
      return a < b ? a : b;
    case ReduceOp::kLogicalAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case ReduceOp::kLogicalOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  DFIL_CHECK(false) << "bad reduce op";
  return 0.0;
}

double NodeRuntime::WaitReduceUp(uint64_t epoch, int round, NodeId from) {
  for (;;) {
    auto it = reduce_inbox_.find({epoch, round, from});
    if (it != reduce_inbox_.end()) {
      const double v = it->second;
      reduce_inbox_.erase(it);
      return v;
    }
    DFIL_CHECK(reduce_waiter_ == nullptr);
    reduce_waiter_ = threads_.current();
    BlockCurrent(WaitKind::kBarrier, epoch);
  }
}

double NodeRuntime::WaitReduceDone(uint64_t epoch) {
  for (;;) {
    auto it = reduce_done_.find(epoch);
    if (it != reduce_done_.end()) {
      const double v = it->second;
      reduce_done_.erase(it);
      return v;
    }
    DFIL_CHECK(reduce_waiter_ == nullptr);
    reduce_waiter_ = threads_.current();
    BlockCurrent(WaitKind::kBarrier, epoch);
  }
}

void NodeRuntime::WaitForFetchDrain() {
  while (dsm_->pending_fetches() > 0) {
    DFIL_CHECK(drain_waiter_ == nullptr);
    drain_waiter_ = threads_.current();
    BlockCurrent(WaitKind::kFetchDrain);
  }
}

void NodeRuntime::SendReduceValue(NodeId dst, uint64_t epoch, int round, double value) {
  net::WireWriter w;
  w.Put(epoch);
  w.Put(static_cast<int32_t>(round));
  w.Put(value);
  if (config_.balancer.enabled) {
    // Balancer wire format: merge-epoch word always present (0 = none; an applied-epoch counter
    // can never be outrun by 0, so 0 never defers), then this sender's accumulated samples — its
    // own plus every subtree sample received in earlier tournament rounds, sorted by node id.
    uint64_t merge_epoch = 0;
    if (config_.coalesce.enabled) {
      merge_epoch = dsm_->PendingGatedMergeEpoch();
    }
    w.Put(merge_epoch);
    const auto& samples = balance_samples_[epoch];
    w.Put(static_cast<uint32_t>(samples.size()));
    for (const auto& [node, s] : samples) {
      w.Put(s.node);
      w.Put(s.arrival);
      w.Put(s.run);
      w.Put(s.wait);
      w.Put(s.serve);
    }
  } else if (config_.coalesce.enabled) {
    // Piggyback the epoch of the still-unacked gated diff merge (it rides to the same parent,
    // held in the same datagram): the receiver defers this contribution until the merge applies.
    if (const uint64_t merge_epoch = dsm_->PendingGatedMergeEpoch(); merge_epoch != 0) {
      w.Put(merge_epoch);
    }
  }
  const bool elide = config_.coalesce.enabled &&
                     config_.barrier != ClusterConfig::BarrierKind::kDissemination;
  const uint64_t req = packet_->SendRequest(
      dst, net::Service::kReduceUp, w.Take(),
      [this](net::WireReader r) {
        pending_up_req_ = 0;
        if (r.remaining() == 0) {
          return;  // plain ack (elision off, or the parent had not seen done yet)
        }
        // Done-carrying reply: the parent answered a retransmitted up with the barrier result.
        const auto epoch = r.Get<uint64_t>();
        const auto value = r.Get<double>();
        if (config_.balancer.enabled) {
          ParsePlan(r);
        }
        reduce_done_[epoch] = value;
        last_done_epoch_ = epoch;
        last_done_value_ = value;
        dsm_->OnBarrierDone();
        if (reduce_waiter_ != nullptr) {
          threads::ServerThread* t = reduce_waiter_;
          reduce_waiter_ = nullptr;
          WakeAtTail(t);
        }
      },
      TimeCategory::kSyncOverhead);
  if (elide) {
    pending_up_req_ = req;  // canceled when the done broadcast arrives
  }
}

// The paper's barrier (§4.5, [HFM88]): tournament ascent, single broadcast descent. O(p)
// messages, O(log p) latency.
double NodeRuntime::ReduceTournament(uint64_t epoch, double value, ReduceOp op) {
  const int p = config_.nodes;
  const NodeId r = id_;
  double accum = value;
  for (int k = 0; (1 << k) < p; ++k) {
    const int bit = 1 << k;
    if ((r & bit) != 0) {
      // Tournament loser: report our partial value to the winner and await dissemination.
      SendReduceValue(r - bit, epoch, k, accum);
      return WaitReduceDone(epoch);
    }
    if (r + bit < p) {
      accum = Combine(accum, WaitReduceUp(epoch, k, r + bit), op);
    }
  }
  DFIL_CHECK_EQ(r, 0);
  DFIL_ORACLE_SWEEP();
  MaybeEmitPlan(epoch);
  net::WireWriter w;
  w.Put(epoch);
  w.Put(accum);
  if (config_.balancer.enabled) {
    AppendPlan(w, epoch);
  }
  if (config_.reliable_broadcast) {
    net::Payload body = w.Take();
    for (NodeId n = 1; n < p; ++n) {
      packet_->SendRequest(n, net::Service::kReduceDone, body, nullptr,
                           TimeCategory::kSyncOverhead);
    }
  } else {
    packet_->BroadcastRaw(net::Service::kReduceDone, w.Take(), TimeCategory::kSyncOverhead);
  }
  last_done_epoch_ = epoch;  // children's retransmitted ups are answered with the result directly
  last_done_value_ = accum;
  return accum;
}

// Dissemination barrier [HFM88]: ceil(log2 p) rounds; in round k node r sends to (r + 2^k) mod p
// and receives from (r - 2^k) mod p. Every node holds the full combination after the last round —
// no dissemination broadcast — at the price of O(p log p) messages.
double NodeRuntime::ReduceDissemination(uint64_t epoch, double value, ReduceOp op) {
  const int p = config_.nodes;
  // With p a power of two, round k leaves node r holding the exact combination of the window
  // (r - 2^k, r]; otherwise windows overlap and non-idempotent operators (sum) double-count.
  DFIL_CHECK((p & (p - 1)) == 0 || op == ReduceOp::kBarrier || op == ReduceOp::kMax ||
             op == ReduceOp::kMin || op == ReduceOp::kLogicalAnd || op == ReduceOp::kLogicalOr)
      << "dissemination sum-reduction requires a power-of-two node count";
  const NodeId r = id_;
  double accum = value;
  for (int k = 0; (1 << k) < p; ++k) {
    const int dist = 1 << k;
    const NodeId to = static_cast<NodeId>((r + dist) % p);
    const NodeId from = static_cast<NodeId>((r - dist + p) % p);
    SendReduceValue(to, epoch, k, accum);
    accum = Combine(accum, WaitReduceUp(epoch, k, from), op);
  }
  return accum;
}

// Central barrier: everyone reports to node 0, which combines and broadcasts. The paper's
// baseline to beat — the master's CPU serializes 2(p-1) message handlings.
double NodeRuntime::ReduceCentral(uint64_t epoch, double value, ReduceOp op) {
  const int p = config_.nodes;
  if (id_ != 0) {
    SendReduceValue(0, epoch, 0, value);
    return WaitReduceDone(epoch);
  }
  double accum = value;
  for (NodeId n = 1; n < p; ++n) {
    accum = Combine(accum, WaitReduceUp(epoch, 0, n), op);
  }
  DFIL_ORACLE_SWEEP();
  MaybeEmitPlan(epoch);
  net::WireWriter w;
  w.Put(epoch);
  w.Put(accum);
  if (config_.balancer.enabled) {
    AppendPlan(w, epoch);
  }
  if (config_.reliable_broadcast) {
    net::Payload body = w.Take();
    for (NodeId n = 1; n < p; ++n) {
      packet_->SendRequest(n, net::Service::kReduceDone, body, nullptr,
                           TimeCategory::kSyncOverhead);
    }
  } else {
    packet_->BroadcastRaw(net::Service::kReduceDone, w.Take(), TimeCategory::kSyncOverhead);
  }
  last_done_epoch_ = epoch;  // children's retransmitted ups are answered with the result directly
  last_done_value_ = accum;
  return accum;
}

double NodeRuntime::Reduce(double value, ReduceOp op) {
  DFIL_CHECK(threads_.current() != nullptr);
  const SimTime entered = clock_;
  // The epoch is stamped into the span name so the critical-path walk can align the same barrier
  // across nodes. Reductions never overlap on one node (single reduce_waiter_ slot), so the
  // pre-drain value is the epoch this reduction will claim below.
  const uint64_t epoch = reduce_epoch_ + 1;
  TraceBegin("sync", "reduce e" + std::to_string(epoch));
  WaitForFetchDrain();
  // A reduction is a synchronization point: implicit-invalidate drops read-only copies here,
  // before any message is sent, which is why it needs no invalidation traffic (paper §3).
  dsm_->AtSyncPoint();
  // The diff protocol flushes twinned pages inside AtSyncPoint; each merge message counts as an
  // outstanding fetch until the home acks it, and this node may not contribute to the barrier
  // before then (the champion's quiescent sweep must see every merge applied). A no-op for the
  // single-writer protocols, which send nothing at sync points.
  WaitForFetchDrain();

  DFIL_CHECK_EQ(++reduce_epoch_, epoch);
  if (config_.balancer.enabled && config_.nodes > 1) {
    RecordLoadSample(epoch, entered);
  }
  double result = value;
  if (config_.nodes > 1) {
    switch (config_.barrier) {
      case ClusterConfig::BarrierKind::kTournamentBroadcast:
        result = ReduceTournament(epoch, value, op);
        break;
      case ClusterConfig::BarrierKind::kDissemination:
        result = ReduceDissemination(epoch, value, op);
        break;
      case ClusterConfig::BarrierKind::kCentral:
        result = ReduceCentral(epoch, value, op);
        break;
    }
  }
  TraceEnd();
  metrics_.Inc("sync.reductions");
  barrier_wait_us_.In(metrics_).Record(ToMicroseconds(clock_ - entered));
  // Arrival-to-release interval for this epoch. Thread-level barrier blocks inside it are
  // recorded separately by the wake path; the wait partition only ever sees scheduler gaps, so
  // this record does not double-count it.
  ledger_.AddBlocked(WaitKind::kBarrier, epoch, entered, clock_);
  RecordEpochSnapshot(epoch, entered);
  if (config_.balancer.enabled && config_.nodes > 1) {
    // Every node saw the plan on the done broadcast (or its done-carrying stand-in), so source
    // and destination act here, between this epoch's barrier and the next sweep: filaments leave
    // the source before its next sweep and the destination's sweep blocks until they join — no
    // iteration runs anywhere without them.
    ApplyPendingPlan();
    balance_samples_.erase(balance_samples_.begin(), balance_samples_.upper_bound(epoch));
  }
  return result;
}

// One row of the per-epoch time series: what this node spent and shipped between the previous
// sync point and this one (deltas against epoch_base_), keyed "epoch.<name>" into the registry's
// epoch rows so metrics_io can serialize the series per node.
void NodeRuntime::RecordEpochSnapshot(uint64_t epoch, SimTime entered) {
  const DsmStats& d = dsm_->stats();
  const net::PacketStats& p = packet_->stats();
  const uint64_t faults = d.read_faults + d.write_faults;
  std::map<std::string, double> row;
  row["epoch"] = static_cast<double>(epoch);
  row["released_at_us"] = ToMicroseconds(clock_);
  row["barrier_wait_us"] = ToMicroseconds(clock_ - entered);
  row["faults"] = static_cast<double>(faults - epoch_base_.faults);
  row["diff_bytes"] = static_cast<double>(d.diff_bytes_sent - epoch_base_.diff_bytes);
  row["datagrams"] = static_cast<double>(p.datagrams_sent - epoch_base_.datagrams);
  row["wait_us"] = ToMicroseconds(ledger_.wait_time() - epoch_base_.wait);
  row["serve_us"] = ToMicroseconds(ledger_.serve_time() - epoch_base_.serve);
  metrics_.AddEpochRow(std::move(row));
  epoch_base_.faults = faults;
  epoch_base_.diff_bytes = d.diff_bytes_sent;
  epoch_base_.datagrams = p.datagrams_sent;
  epoch_base_.wait = ledger_.wait_time();
  epoch_base_.serve = ledger_.serve_time();
}

// --- Load balancing (DESIGN.md §13) ---------------------------------------------------------------

void NodeRuntime::RecordLoadSample(uint64_t epoch, SimTime entered) {
  LoadSample s;
  s.node = id_;
  s.arrival = entered;
  s.run = ledger_.run_time() - balance_base_.run;
  s.wait = ledger_.wait_time() - balance_base_.wait;
  s.serve = ledger_.serve_time() - balance_base_.serve;
  balance_samples_[epoch][id_] = s;
  balance_base_.run = ledger_.run_time();
  balance_base_.wait = ledger_.wait_time();
  balance_base_.serve = ledger_.serve_time();
}

void NodeRuntime::MaybeEmitPlan(uint64_t epoch) {
  if (balancer_ == nullptr) {
    return;
  }
  const auto it = balance_samples_.find(epoch);
  if (it == balance_samples_.end() || static_cast<int>(it->second.size()) != config_.nodes) {
    return;  // defensive: reduce-ups are reliable, so all n samples should be here
  }
  std::vector<LoadSample> samples;
  samples.reserve(it->second.size());
  for (const auto& [node, s] : it->second) {
    samples.push_back(s);
  }
  const std::optional<RebalancePlan> plan = balancer_->AtSyncPoint(epoch, samples);
  if (plan.has_value()) {
    last_plan_ = *plan;
    metrics_.Inc("core.rebalance_plans");
    tracer_.InstantOnTrack(dsm::kRebalanceTid, "core",
                           "rebalance plan e" + std::to_string(epoch) + " n" +
                               std::to_string(plan->src) + " -> n" + std::to_string(plan->dst));
  }
}

void NodeRuntime::AppendPlan(net::WireWriter& w, uint64_t epoch) const {
  if (last_plan_.has_value() && last_plan_->epoch == epoch) {
    w.Put(static_cast<uint8_t>(1));
    w.Put(last_plan_->epoch);
    w.Put(last_plan_->src);
    w.Put(last_plan_->dst);
    w.Put(last_plan_->fraction_ppm);
  } else {
    w.Put(static_cast<uint8_t>(0));
  }
}

void NodeRuntime::ParsePlan(net::WireReader& r) {
  if (r.remaining() < sizeof(uint8_t) || r.Get<uint8_t>() == 0) {
    return;
  }
  RebalancePlan plan;
  plan.epoch = r.Get<uint64_t>();
  plan.src = r.Get<int32_t>();
  plan.dst = r.Get<int32_t>();
  plan.fraction_ppm = r.Get<uint32_t>();
  // Stale dones (duplicated broadcasts, retransmission re-runs) carry stale plans; keep newest.
  if (!last_plan_.has_value() || plan.epoch > last_plan_->epoch) {
    last_plan_ = plan;
  }
}

void NodeRuntime::ApplyPendingPlan() {
  if (!last_plan_.has_value() || last_plan_->epoch <= last_plan_applied_) {
    return;
  }
  const RebalancePlan plan = *last_plan_;
  last_plan_applied_ = plan.epoch;
  if (id_ == plan.dst) {
    pools_->ExpectMigration();
  }
  if (id_ != plan.src) {
    return;
  }
  PoolEngine::MigrationBatch batch =
      pools_->ExtractMigration(static_cast<double>(plan.fraction_ppm) / 1e6);
  if (!config_.balancer.balance_rehome_pages) {
    batch.pages.clear();
  }
  net::WireWriter w;
  w.Put(plan.epoch);
  w.Put(static_cast<uint32_t>(batch.filaments.size()));
  for (const Filament& f : batch.filaments) {
    // Filaments are stackless — a code pointer plus three argument words — so migration is this
    // small message. All simulated nodes share one address space; a real cluster would ship a
    // function-table index instead of the pointer bits.
    w.Put(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(f.fn)));
    w.Put(f.a0);
    w.Put(f.a1);
    w.Put(f.a2);
  }
  w.Put(static_cast<uint32_t>(batch.pages.size()));
  for (const PageId page : batch.pages) {
    w.Put(page);
  }
  // Always sent, even empty: the destination armed a sweep-entry wait and needs the release.
  packet_->SendRequest(plan.dst, net::Service::kFilamentMigrate, w.Take(), nullptr,
                       TimeCategory::kSyncOverhead);
  tracer_.InstantOnTrack(dsm::kRebalanceTid, "core",
                         "rebalance migrate_out f" + std::to_string(batch.filaments.size()) +
                             " p" + std::to_string(batch.pages.size()) + " -> n" +
                             std::to_string(plan.dst));
}

void NodeRuntime::RegisterMigrateService() {
  packet_->RegisterService(
      net::Service::kFilamentMigrate,
      [this](NodeId src, net::WireReader body) -> std::optional<net::Payload> {
        const auto plan_epoch = body.Get<uint64_t>();
        if (plan_epoch <= migrate_applied_epoch_) {
          return net::Payload{};  // duplicate of an already-integrated batch
        }
        migrate_applied_epoch_ = plan_epoch;
        const auto nfil = body.Get<uint32_t>();
        std::vector<Filament> filaments;
        filaments.reserve(nfil);
        for (uint32_t i = 0; i < nfil; ++i) {
          Filament f;
          f.fn = reinterpret_cast<FilamentFn>(static_cast<uintptr_t>(body.Get<uint64_t>()));
          f.a0 = body.Get<int64_t>();
          f.a1 = body.Get<int64_t>();
          f.a2 = body.Get<int64_t>();
          filaments.push_back(f);
        }
        const auto npages = body.Get<uint32_t>();
        std::vector<PageId> pages;
        pages.reserve(npages);
        for (uint32_t i = 0; i < npages; ++i) {
          pages.push_back(body.Get<PageId>());
        }
        metrics_.Inc("core.filaments_migrated", nfil);
        tracer_.InstantOnTrack(dsm::kRebalanceTid, "core",
                               "rebalance migrate_in f" + std::to_string(nfil) + " p" +
                                   std::to_string(npages) + " <- n" + std::to_string(src));
        if (!pages.empty()) {
          // Re-home the strips' backing pages now, overlapping the transfers with whatever runs
          // before the next sweep; filaments faulting on an in-flight page join its waiter list.
          dsm_->RequestRehome(pages, src);
        }
        pools_->AcceptMigration(std::move(filaments));
        return net::Payload{};
      },
      /*idempotent=*/true);
}

void NodeRuntime::FinalizeLedger() {
  // The trailing scheduler gap (after the last wake — typically the quiet tail waiting for the
  // cluster to finish) has no wake to classify it; it is idle wait, and Figure 10 leaves it out.
  if (pending_gap_ > 0) {
    ledger_.AddTrailingGap(pending_gap_);
    pending_gap_ = 0;
  }
}

// --- Channels ------------------------------------------------------------------------------------

void NodeRuntime::ChannelSend(NodeId dst, uint32_t tag, std::span<const std::byte> bytes) {
  net::WireWriter w;
  w.Put(tag);
  w.PutBytes(bytes.data(), bytes.size());
  packet_->SendRaw(dst, net::Service::kAppData, w.Take(), TimeCategory::kDataTransfer);
}

void NodeRuntime::ChannelBroadcast(uint32_t tag, std::span<const std::byte> bytes) {
  net::WireWriter w;
  w.Put(tag);
  w.PutBytes(bytes.data(), bytes.size());
  packet_->BroadcastRaw(net::Service::kAppData, w.Take(), TimeCategory::kDataTransfer);
}

std::optional<std::vector<std::byte>> NodeRuntime::ChannelTryRecv(NodeId src, uint32_t tag) {
  Channel& ch = channels_[{src, tag}];
  if (ch.messages.empty()) {
    return std::nullopt;
  }
  std::vector<std::byte> msg = std::move(ch.messages.front());
  ch.messages.pop_front();
  return msg;
}

void NodeRuntime::WaitAnyChannel() {
  threads::ServerThread* self = threads_.current();
  DFIL_CHECK(self != nullptr);
  DFIL_CHECK(any_channel_waiter_ == nullptr);
  any_channel_waiter_ = self;
  BlockCurrent(WaitKind::kChannel);
}

std::vector<std::byte> NodeRuntime::ChannelRecv(NodeId src, uint32_t tag) {
  threads::ServerThread* self = threads_.current();
  DFIL_CHECK(self != nullptr);
  Channel& ch = channels_[{src, tag}];
  while (ch.messages.empty()) {
    DFIL_CHECK(ch.waiter == nullptr) << "two receivers on one channel";
    ch.waiter = self;
    BlockCurrent(WaitKind::kChannel);
  }
  std::vector<std::byte> msg = std::move(ch.messages.front());
  ch.messages.pop_front();
  return msg;
}

}  // namespace dfil::core
