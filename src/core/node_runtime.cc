#include "src/core/node_runtime.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/forkjoin.h"
#include "src/core/pool_engine.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/page_protocol.h"

namespace dfil::core {

NodeRuntime::NodeRuntime(NodeId id, const ClusterConfig& config, sim::Machine* machine,
                         const dsm::GlobalLayout* layout)
    : id_(id), config_(config), machine_(machine), threads_(config.backend), env_(this) {
  tracer_.BindNode(id_, [this] { return CurrentTid(); }, [this] { return clock_; });
  BuildReduceSchedule();
  packet_ = std::make_unique<net::PacketEndpoint>(machine_, this, config_.packet);
  packet_->set_tracer(&tracer_);
  packet_->set_metrics(&metrics_);
  packet_->set_coalesce(config_.coalesce);
  packet_->set_ledger(&ledger_);
  dsm_ = std::make_unique<dsm::DsmNode>(this, layout, packet_.get(), &machine_->costs(),
                                        config_.dsm, barrier_parent_, &tracer_, &metrics_);
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
        WakeWaiter(ch.waiter);
        WakeWaiter(any_channel_waiter_);
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

void NodeRuntime::FetchesDrained() { WakeWaiter(drain_waiter_); }

void NodeRuntime::WakeAt(threads::ServerThread* t, bool front) {
  DFIL_CHECK(t->state() == threads::ThreadState::kBlocked);
  if (auto it = std::find(blocked_.begin(), blocked_.end(), t); it != blocked_.end()) {
    blocked_.erase(it);
  }
  if (pending_gap_ > 0) {
    ledger_.AddGap(t->block_kind(), pending_gap_);
    pending_gap_ = 0;
  }
  if (clock_ > t->blocked_since()) {
    ledger_.AddBlocked(t->block_kind(), t->block_detail(), t->blocked_since(), clock_,
                       t->profile_pool());
  }
  t->set_blocked_since(-1);
  t->set_state(threads::ThreadState::kReady);
  if (front) {
    ready_.PushFront(t);
  } else {
    ready_.PushBack(t);
  }
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

std::vector<NodeId> BinomialChildren(NodeId node, int nodes) {
  std::vector<NodeId> children;
  const int64_t low = node == 0 ? nodes : (node & -node);
  for (int64_t b = 1; b < low && node + b < nodes; b <<= 1) {
    children.push_back(static_cast<NodeId>(node + b));
  }
  return children;
}

void NodeRuntime::BuildReduceSchedule() {
  const int p = config_.nodes;
  const NodeId r = id_;
  // Wire round k of a tree step: the peer is 2^k away.
  const auto round_of = [](int64_t distance) {
    return std::countr_zero(static_cast<uint64_t>(distance));
  };
  switch (config_.barrier) {
    case ClusterConfig::BarrierKind::kTournamentBroadcast:
      // The paper's barrier (§4.5, [HFM88]): a tournament up the binomial tree, where node r
      // combines r + 2^k in round k and then reports to r - lowbit(r), and a single broadcast of
      // the result down. O(p) messages, O(log p) latency.
      for (const NodeId child : BinomialChildren(r, p)) {
        reduce_steps_.push_back({child, round_of(child - r), /*send=*/false});
      }
      if (r != 0) {
        barrier_parent_ = r - (r & -r);
        reduce_steps_.push_back({barrier_parent_, round_of(r - barrier_parent_), /*send=*/true});
      }
      break;
    case ClusterConfig::BarrierKind::kCentral:
      // Everyone reports to node 0, which combines and broadcasts: the paper's baseline to beat,
      // where the master's CPU serializes 2(p-1) message handlings.
      if (r != 0) {
        barrier_parent_ = 0;
        reduce_steps_.push_back({0, 0, /*send=*/true});
        break;
      }
      for (NodeId n = 1; n < p; ++n) {
        reduce_steps_.push_back({n, 0, /*send=*/false});
      }
      break;
    case ClusterConfig::BarrierKind::kDissemination:
      // [HFM88]: in round k node r sends to (r + 2^k) mod p and combines (r - 2^k) mod p. Every
      // node holds the full combination after ceil(log2 p) rounds, with no broadcast, at the price
      // of O(p log p) messages.
      for (int k = 0; (1 << k) < p; ++k) {
        reduce_steps_.push_back({static_cast<NodeId>((r + (1 << k)) % p), k, /*send=*/true});
        reduce_steps_.push_back({static_cast<NodeId>((r - (1 << k) + p) % p), k, /*send=*/false});
      }
      break;
  }
}

bool NodeRuntime::ElideUpAcks() const {
  return config_.coalesce.enabled && config_.barrier != ClusterConfig::BarrierKind::kDissemination;
}

void NodeRuntime::RegisterReduceServices() {
  packet_->RegisterService(
      net::Service::kReduceUp,
      [this](NodeId src, net::WireReader body) -> std::optional<net::Payload> {
        const auto epoch = body.Get<uint64_t>();
        const auto round = body.Get<int32_t>();
        const auto value = body.Get<double>();
        if (DeferUp(src, epoch, body)) {
          return std::nullopt;
        }
        if (ElideUpAcks() && last_done_epoch_ >= epoch) {
          // A retransmission of a contribution this barrier already consumed (its elided ack was
          // lost on the sender): answer with the done value directly, standing in for the
          // broadcast the sender evidently also missed.
          return DonePayload(epoch, last_done_value_);
        }
        reduce_inbox_[{epoch, round, src}] = value;
        WakeWaiter(reduce_waiter_);
        if (ElideUpAcks()) {
          // The done broadcast is the real ack of a reduce-up; skip the empty reply datagram.
          packet_->ElideCurrentReply();
        }
        return net::Payload{};
      },
      /*idempotent=*/true);
  RegisterBroadcastHandler(net::Service::kReduceDone,
                           [this](net::WireReader body) { AcceptDone(body); });
}

void NodeRuntime::BroadcastToPeers(net::Service service, const net::Payload& body) {
  if (config_.reliable_broadcast) {
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (n != id_) {
        packet_->SendRequest(n, service, body, nullptr, TimeCategory::kSyncOverhead);
      }
    }
  } else if (config_.nodes > 1) {
    packet_->BroadcastRaw(service, body, TimeCategory::kSyncOverhead);
  }
}

void NodeRuntime::RegisterBroadcastHandler(net::Service service,
                                           std::function<void(net::WireReader)> fn) {
  packet_->RegisterRawHandler(service, [fn](NodeId, net::WireReader body) { fn(body); });
  packet_->RegisterService(
      service,
      [fn](NodeId, net::WireReader body) -> std::optional<net::Payload> {
        fn(body);
        return net::Payload{};
      },
      /*idempotent=*/true);
}

net::Payload NodeRuntime::DonePayload(uint64_t epoch, double value) const {
  net::WireWriter w;
  w.Put(epoch);
  w.Put(value);
  if (config_.balancer.enabled) {
    AppendPlan(w, epoch);
  }
  return w.Take();
}

void NodeRuntime::AcceptDone(net::WireReader body) {
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
  WakeWaiter(reduce_waiter_);
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
  AppendUpTrailer(w, epoch);
  const uint64_t req = packet_->SendRequest(
      dst, net::Service::kReduceUp, w.Take(),
      [this](net::WireReader r) {
        pending_up_req_ = 0;
        if (r.remaining() > 0) {
          // Done-carrying reply: the parent answered a retransmitted up with the barrier result
          // (an empty reply is a plain ack). Its epoch is always newer than last_done_epoch_: a
          // done for that epoch would have canceled this request. So AcceptDone's stale-done
          // guard changes nothing here.
          AcceptDone(r);
        }
      },
      TimeCategory::kSyncOverhead);
  if (ElideUpAcks()) {
    pending_up_req_ = req;  // canceled when the done broadcast arrives
  }
}

void NodeRuntime::AppendUpTrailer(net::WireWriter& w, uint64_t epoch) {
  // The still-unacked gated diff merge rides to the same parent in the same datagram; the
  // receiver defers this contribution until that merge applies. An applied-epoch counter can
  // never be outrun by 0, so 0 never defers.
  const uint64_t merge_epoch = config_.coalesce.enabled ? dsm_->PendingGatedMergeEpoch() : 0;
  if (!config_.balancer.enabled) {
    if (merge_epoch != 0) {
      w.Put(merge_epoch);
    }
    return;
  }
  // The balancer's form (config-uniform across the cluster, so the balancer-off form stays
  // byte-identical): the word always, then this sender's samples, its own plus every subtree
  // sample received in earlier tournament rounds, sorted by node id.
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
}

bool NodeRuntime::DeferUp(NodeId src, uint64_t epoch, net::WireReader& body) {
  // Deferring keeps the champion's quiescent sweep seeing every merge even when injected
  // reordering or duplication splits a merge from its up.
  if (!config_.balancer.enabled) {
    return body.remaining() >= sizeof(uint64_t) &&
           body.Get<uint64_t>() > dsm_->DiffAppliedEpoch(src);
  }
  if (body.Get<uint64_t>() > dsm_->DiffAppliedEpoch(src)) {
    return true;
  }
  const auto nsamples = body.Get<uint32_t>();
  for (uint32_t i = 0; i < nsamples; ++i) {
    LoadSample s;
    s.node = body.Get<int32_t>();
    s.arrival = body.Get<SimTime>();
    s.run = body.Get<SimTime>();
    s.wait = body.Get<SimTime>();
    s.serve = body.Get<SimTime>();
    balance_samples_[epoch][s.node] = s;  // idempotent under retransmitted ups
  }
  return false;
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
    const int p = config_.nodes;
    // With p a power of two, dissemination round k leaves node r holding the exact combination of
    // the window (r - 2^k, r]; otherwise windows overlap and non-idempotent operators (sum)
    // double-count.
    DFIL_CHECK(config_.barrier != ClusterConfig::BarrierKind::kDissemination ||
               (p & (p - 1)) == 0 || op == ReduceOp::kBarrier || op == ReduceOp::kMax ||
               op == ReduceOp::kMin || op == ReduceOp::kLogicalAnd || op == ReduceOp::kLogicalOr)
        << "dissemination sum-reduction requires a power-of-two node count";
    for (const ReduceStep& step : reduce_steps_) {
      if (step.send) {
        SendReduceValue(step.peer, epoch, step.round, result);
      } else {
        result = Combine(result, WaitReduceUp(epoch, step.round, step.peer), op);
      }
    }
    if (barrier_parent_ != kNoNode) {
      result = WaitReduceDone(epoch);
    } else if (config_.barrier != ClusterConfig::BarrierKind::kDissemination) {
      // The root holds every contribution, so every node has drained its outstanding fetches and
      // run AtSyncPoint before sending up: the cluster-wide page state is stable until the done
      // goes out, a quiescent point for the oracle's sweep. Dissemination has no such point.
      if (config_.coherence_oracle != nullptr) {
        config_.coherence_oracle->AtQuiescentPoint();
      }
      MaybeEmitPlan(epoch);
      BroadcastToPeers(net::Service::kReduceDone, DonePayload(epoch, result));
      last_done_epoch_ = epoch;  // children's retransmitted ups are answered with the result
      last_done_value_ = result;
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
