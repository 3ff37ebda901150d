#include "src/sim/machine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace dfil::sim {

void Machine::AddHost(NodeHost* host) {
  DFIL_CHECK_EQ(host->id(), static_cast<NodeId>(hosts_.size()));
  hosts_.push_back(host);
}

SimTime Machine::CausalHorizon(NodeId self) const {
  SimTime min_other = kSimTimeNever;
  for (const NodeHost* host : hosts_) {
    if (host->id() != self && host->Runnable() && host->Clock() < min_other) {
      min_other = host->Clock();
    }
  }
  return min_other == kSimTimeNever ? kSimTimeNever : min_other + lookahead_;
}

void Machine::Deliver(Datagram d, SimTime at) {
  const NodeId dst = d.dst;
  DFIL_CHECK_GE(dst, 0);
  DFIL_CHECK_LT(static_cast<size_t>(dst), hosts_.size());
  uint32_t rec;
  if (free_mail_.empty()) {
    rec = static_cast<uint32_t>(mail_.size());
    mail_.emplace_back();
  } else {
    rec = free_mail_.back();
    free_mail_.pop_back();
  }
  mail_[rec] = std::move(d);
  // Run advances the host to `at` first and refreshes it after.
  events_.Schedule(at, dst, [this, rec] {
    Datagram msg = std::move(mail_[rec]);
    free_mail_.push_back(rec);
    hosts_[msg.dst]->OnDatagram(std::move(msg));
  }).Release();
}

void Machine::Refresh(NodeId id) {
  const NodeHost* host = hosts_[id];
  int i = heap_index_[id];
  if (host->Runnable()) {
    if (i < 0) {
      i = static_cast<int>(runnable_.size());
      runnable_.emplace_back();
    }
    Sift(static_cast<size_t>(i), RunnableSlot{host->Clock(), id});
  } else if (i >= 0) {
    heap_index_[id] = -1;
    const RunnableSlot last = runnable_.back();
    runnable_.pop_back();
    if (static_cast<size_t>(i) < runnable_.size()) {
      Sift(static_cast<size_t>(i), last);
    }
  }
}

void Machine::Sift(size_t i, RunnableSlot slot) {
  const auto place = [this](size_t at, RunnableSlot s) {
    runnable_[at] = s;
    heap_index_[s.id] = static_cast<int>(at);
  };
  while (i > 0 && slot < runnable_[(i - 1) / 2]) {
    place(i, runnable_[(i - 1) / 2]);
    i = (i - 1) / 2;
  }
  for (size_t child = 2 * i + 1; child < runnable_.size(); child = 2 * i + 1) {
    if (child + 1 < runnable_.size()) {
      // The smaller child, picked by a conditional move rather than a branch.
      child += static_cast<size_t>(runnable_[child + 1] < runnable_[child]);
    }
    if (!(runnable_[child] < slot)) {
      break;
    }
    place(i, runnable_[child]);
    i = child;
  }
  place(i, slot);
}

bool Machine::HeapRootMatchesScan() const {
  const NodeHost* lowest = nullptr;
  for (const NodeHost* host : hosts_) {
    if (host->Runnable() && (lowest == nullptr || host->Clock() < lowest->Clock())) {
      lowest = host;
    }
  }
  if (lowest == nullptr || runnable_.empty()) {
    return lowest == nullptr && runnable_.empty();
  }
  return runnable_.front().id == lowest->id() && runnable_.front().clock == lowest->Clock();
}

namespace {

const char* MsgClassName(MsgClass klass) {
  switch (klass) {
    case MsgClass::kRequest:
      return "request";
    case MsgClass::kReply:
      return "reply";
    case MsgClass::kRaw:
      return "raw";
    case MsgClass::kAck:
      return "ack";
    case MsgClass::kPacked:
      return "packed";
    default:
      return "unknown";
  }
}

}  // namespace

void Machine::InjectionInstant(const Datagram& d, const char* what, SimTime at) {
  injection_log_[injections_seen_ % kInjectionLogCapacity] =
      InjectionNote{what, d.klass, d.type, d.src, d.dst, at};
  injections_seen_++;
  if (trace_ == nullptr) {
    return;
  }
  std::ostringstream os;
  os << what << " " << MsgClassName(d.klass) << " svc" << d.type << " n" << d.src << "->n"
     << d.dst;
  if (d.trace != 0) {
    os << " #" << d.trace;
  }
  trace_->Instant(d.dst, kInjectionTid, "inject", os.str(), at);
}

void Machine::InjectAndDeliver(Datagram d, SimTime at) {
  if (!injector_.enabled()) {
    Deliver(std::move(d), at);
    return;
  }
  FaultDecision dec = injector_.Decide(d.src, d.dst, d.type, d.klass);
  std::vector<Datagram> dups(dec.dup_delays.size(), d);
  if (dec.extra_delay > 0) {
    net_stats_.messages_delayed++;
  }
  if (dec.drop) {
    net_stats_.messages_dropped++;
    InjectionInstant(d, "drop", at);
    DFIL_LOG(kDebug, "net") << "drop " << d.src << "->" << d.dst << " type=" << d.type
                            << " class=" << static_cast<int>(d.klass);
  } else {
    const SimTime t = injector_.AdjustForStall(d.dst, at + dec.extra_delay);
    if (dec.extra_delay > 0) {
      InjectionInstant(d, "delay", at + dec.extra_delay);
    }
    if (t != at + dec.extra_delay) {
      net_stats_.stall_deferrals++;
      InjectionInstant(d, "stall", t);
    }
    Deliver(std::move(d), t);
  }
  for (size_t i = 0; i < dups.size(); ++i) {
    net_stats_.messages_duplicated++;
    const SimTime base = at + dec.dup_delays[i];
    const SimTime t = injector_.AdjustForStall(dups[i].dst, base);
    if (t != base) {
      net_stats_.stall_deferrals++;
      InjectionInstant(dups[i], "stall", t);
    }
    InjectionInstant(dups[i], "dup", t);
    DFIL_LOG(kDebug, "net") << "dup " << dups[i].src << "->" << dups[i].dst
                            << " type=" << dups[i].type << " at+" << ToMilliseconds(t - at)
                            << "ms";
    Deliver(std::move(dups[i]), t);
  }
}

void Machine::Send(Datagram d, SimTime ready) {
  DFIL_CHECK(d.dst != kBroadcastDst) << "use Broadcast()";
  net_stats_.messages_sent++;
  net_stats_.bytes_sent += d.payload.size();
  TxPlan plan = network_->PlanUnicast(d.src, d.dst, d.payload.size(), ready);
  if (plan.dropped) {
    // Forced by a scripted network model.
    net_stats_.messages_dropped++;
    DFIL_LOG(kDebug, "net") << "drop " << d.src << "->" << d.dst << " type=" << d.type;
    return;
  }
  InjectAndDeliver(std::move(d), plan.deliver_at);
}

void Machine::Broadcast(Datagram d, SimTime ready) {
  std::vector<NodeId> dsts;
  dsts.reserve(hosts_.size());
  for (const NodeHost* host : hosts_) {
    if (host->id() != d.src) {
      dsts.push_back(host->id());
    }
  }
  net_stats_.messages_sent++;
  net_stats_.bytes_sent += d.payload.size();
  std::vector<TxPlan> plans;
  network_->PlanBroadcast(d.src, dsts, d.payload.size(), ready, plans);
  DFIL_CHECK_EQ(plans.size(), dsts.size());
  for (size_t i = 0; i < dsts.size(); ++i) {
    if (plans[i].dropped) {
      net_stats_.messages_dropped++;
      continue;
    }
    Datagram copy = d;
    copy.dst = dsts[i];
    InjectAndDeliver(std::move(copy), plans[i].deliver_at);
  }
}

EventHandle Machine::ScheduleTimer(NodeId node, SimTime at, std::function<void()> fn) {
  DFIL_CHECK_GE(node, 0);
  DFIL_CHECK_LT(static_cast<size_t>(node), hosts_.size());
  return events_.Schedule(at, node, std::move(fn));
}

NodeHost* Machine::BeginStep() {
  const NodeId next = runnable_.front().id;
  // The lowest clock among the other runnable hosts sits in one of the root's children.
  SimTime min_other = kSimTimeNever;
  for (size_t child = 1; child <= 2 && child < runnable_.size(); ++child) {
    min_other = std::min(min_other, runnable_[child].clock);
  }
  stepping_ = next;
  stepping_horizon_ = min_other == kSimTimeNever ? kSimTimeNever : min_other + lookahead_;
  ++steps_;
  return hosts_[next];
}

NodeHost* Machine::HandOff(NodeId self) {
  DFIL_DCHECK(self == stepping_);
  Refresh(self);
  if (!failure_.empty()) {
    return nullptr;
  }
  DFIL_DCHECK(HeapRootMatchesScan());
  if (!RootStepsBefore(events_.NextTime()) || RootPastCap() ||
      !hosts_[runnable_.front().id]->ResumesMidCharge()) {
    return nullptr;
  }
  ++handoffs_;
  NodeHost* next = BeginStep();
  DFIL_DCHECK(stepping_ != self);
  return next;
}

RunResult Machine::Run(SimTime max_virtual_time) {
  RunResult result;
  max_virtual_time_ = max_virtual_time;
  // Hosts may have changed since the last Run (tests script them directly), so index them anew.
  runnable_.clear();
  heap_index_.assign(hosts_.size(), -1);
  for (const NodeHost* host : hosts_) {
    Refresh(host->id());
  }
  for (;;) {
    if (!failure_.empty()) {
      result.deadlock_report = failure_;
      break;
    }
    // The runnable node with the smallest clock (ties by id, for determinism) is the heap root.
    DFIL_DCHECK(HeapRootMatchesScan());
    SimTime event_time = events_.NextTime();
    if (RootStepsBefore(event_time)) {
      if (RootPastCap()) {
        result.deadlock_report = "virtual time limit exceeded";
        break;
      }
      BeginStep()->Step();
      // The thread that came back belongs to the stepping host, which hand-offs may have moved
      // past the host stepped here (already re-sifted when it handed off).
      const NodeId back = stepping_;
      stepping_ = kNoNode;
      Refresh(back);
      continue;
    }
    if (event_time != kSimTimeNever) {
      if (event_time > max_virtual_time) {
        result.deadlock_report = "virtual time limit exceeded";
        break;
      }
      // Every event is a delivery or a timer addressed to a host.
      EventQueue::Event event = events_.PopEvent();
      ++events_dispatched_;
      hosts_[event.node]->AdvanceTo(event.time);
      event.fn();
      Refresh(event.node);
      continue;
    }

    // No runnable node and no pending event: either everyone finished, or we are deadlocked.
    bool all_done = true;
    for (const NodeHost* host : hosts_) {
      if (!host->Done()) {
        all_done = false;
        break;
      }
    }
    result.completed = all_done;
    result.deadlocked = !all_done;
    if (result.deadlocked) {
      result.deadlock_report = BuildDeadlockReport();
    }
    break;
  }

  for (const NodeHost* host : hosts_) {
    if (host->Clock() > result.makespan) {
      result.makespan = host->Clock();
    }
  }
  result.events_dispatched = events_dispatched_;
  result.steps = steps_;
  result.handoffs = handoffs_;
  return result;
}

std::string Machine::BuildDeadlockReport() const {
  std::ostringstream os;
  os << "deadlock: no runnable node, no pending event\n";
  for (const NodeHost* host : hosts_) {
    os << "  node " << host->id() << " @" << ToMilliseconds(host->Clock()) << "ms "
       << (host->Done() ? "done" : host->DescribeBlocked()) << "\n";
  }
  return os.str();
}

}  // namespace dfil::sim
