// The cluster: N simulated workstations plus a network, executed in virtual time.
//
// Execution model (DESIGN.md §2): each node has its own virtual clock, advanced by explicit
// charges from the cost model. The Machine repeatedly resumes the runnable node with the smallest
// clock; a running node yields back whenever its clock would pass the next pending external event
// (a datagram delivery or timer), so messages interrupt computation at exact virtual times — the
// simulated analog of SunOS delivering SIGIO mid-computation. Event dispatch at equal times is
// FIFO, so runs are fully deterministic.
#ifndef DFIL_SIM_MACHINE_H_
#define DFIL_SIM_MACHINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"

namespace dfil::sim {

inline constexpr NodeId kBroadcastDst = -2;

// A raw (unreliable, UDP-like) datagram. `type` is an upper-layer tag the simulator does not
// interpret; the payload is opaque bytes. `klass` is the transport class stamped by the Packet
// layer (request/reply/raw/ack) so fault rules can target e.g. only replies.
struct Datagram {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  uint32_t type = 0;
  MsgClass klass = MsgClass::kUnknown;
  // Causal trace id stamped by the Packet layer (0 = none); lets fault-injection instants name
  // the flow they perturbed.
  uint64_t trace = 0;
  std::vector<std::byte> payload;
};

// Per-node execution engine, implemented by the runtime layer (src/core). The Machine calls these
// from its own (host) stack; OnDatagram and timer callbacks must not block or switch contexts.
//
// Scheduling contract: a host's Runnable() and Clock() change only inside its own Step(), or
// inside an event addressed to it (a delivery to it, or a timer scheduled for it). The Machine
// relies on this to keep its runnable-host heap and the stepping host's causal horizon current
// without rescanning every host; debug builds cross-check both against a full scan.
class NodeHost {
 public:
  virtual ~NodeHost() = default;

  virtual NodeId id() const = 0;
  virtual SimTime Clock() const = 0;

  // True when the node has a ready server thread to run.
  virtual bool Runnable() const = 0;

  // True when the node's main program has finished.
  virtual bool Done() const = 0;

  // Resumes execution. Returns when the node blocks (no ready thread) or when its clock reaches
  // the machine's next external event time.
  virtual void Step() = 0;

  // Moves the node clock forward to at least `t` (used for deliveries to idle nodes). Must not
  // move the clock backwards.
  virtual void AdvanceTo(SimTime t) = 0;

  // Asynchronous message-arrival handler (the SIGIO analog). Charges receive overhead to this
  // node's clock, then dispatches; never blocks.
  virtual void OnDatagram(Datagram d) = 0;

  // Human-readable description of why the node is blocked, for deadlock reports.
  virtual std::string DescribeBlocked() const = 0;
};

struct RunResult {
  bool completed = false;  // all hosts Done
  bool deadlocked = false;
  SimTime makespan = 0;  // max node clock at termination
  std::string deadlock_report;
  uint64_t events_dispatched = 0;
};

class Machine {
 public:
  // `fault_plan` drives the adversarial fault injection applied on the delivery path (drop,
  // duplication, extra delay, receiver stalls); the default plan injects nothing.
  Machine(std::unique_ptr<NetworkModel> network, const CostModel& costs,
          FaultPlan fault_plan = {})
      : network_(std::move(network)), costs_(costs), injector_(std::move(fault_plan)) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Registers a host. Hosts must be added in NodeId order, ids dense from 0.
  void AddHost(NodeHost* host);

  const CostModel& costs() const { return costs_; }
  NetworkModel& network() { return *network_; }
  int num_nodes() const { return static_cast<int>(hosts_.size()); }
  MessageStats& net_stats() { return net_stats_; }

  const FaultInjector& injector() const { return injector_; }

  // Optional: when set, every fault-injection decision (drop/dup/delay/stall) emits a trace
  // instant on the victim node's injection track, so injected faults are visible in the same
  // Perfetto timeline they perturb. May be null (tracing off).
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  // Dedicated tid for injection instants (keeps them off the server-thread span tracks).
  static constexpr uint64_t kInjectionTid = 1000000;

  // Recent fault-injection decisions, kept in a fixed ring independent of tracing so flight
  // recorder dumps (fuzz failures replayed without a trace) still carry the adversary's last
  // moves. `what` points at a string literal.
  struct InjectionNote {
    const char* what = "";
    MsgClass klass = MsgClass::kRaw;
    uint32_t type = 0;
    NodeId src = 0;
    NodeId dst = 0;
    SimTime at = 0;
  };
  static constexpr size_t kInjectionLogCapacity = 256;
  // Oldest first, at most kInjectionLogCapacity entries.
  std::vector<InjectionNote> RecentInjections() const {
    std::vector<InjectionNote> out;
    const uint64_t n = injections_seen_ < kInjectionLogCapacity ? injections_seen_
                                                                : kInjectionLogCapacity;
    out.reserve(n);
    for (uint64_t i = injections_seen_ - n; i < injections_seen_; ++i) {
      out.push_back(injection_log_[i % kInjectionLogCapacity]);
    }
    return out;
  }

  // Hands a datagram to the network at time `ready` (normally the sender's current clock, after
  // it charged send overhead). Lost datagrams count in net_stats but are never delivered.
  void Send(Datagram d, SimTime ready);

  // Broadcasts to every other node. On SharedEthernet this is a single transmission.
  void Broadcast(Datagram d, SimTime ready);

  // Schedules `fn` to run on `node` at virtual time `at` (a SIGALRM analog: the host clock is
  // advanced to `at` and charged timer overhead before `fn` runs).
  EventHandle ScheduleTimer(NodeId node, SimTime at, std::function<void()> fn);

  // Earliest pending external event; running nodes yield when their clock reaches this.
  SimTime NextExternalTime() const { return events_.NextTime(); }

  // Conservative causality horizon for `self`: no other runnable node can affect `self` (or the
  // network) before its own clock plus the lookahead — the minimum CPU cost of initiating any
  // action (a message send). A charging node must not advance past min(next event, horizon), or
  // it would act "in the past" of its peers. Scans every host.
  SimTime CausalHorizon(NodeId self) const;

  // The limit a node running on behalf of `self` may charge up to before yielding. Inside Run,
  // the host being stepped reads its horizon from a memo taken before its Step(): by the NodeHost
  // contract no other host's clock or runnability can change until that Step() returns. Only a
  // host charging outside Run's Step() (tests, probes) pays for the CausalHorizon scan.
  SimTime ChargeLimit(NodeId self) const {
    const SimTime ev = NextExternalTime();
    const SimTime hz = self == stepping_ ? stepping_horizon_ : CausalHorizon(self);
    DFIL_DCHECK(hz == CausalHorizon(self));
    return ev < hz ? ev : hz;
  }

  // Runs until every host is Done, or no progress is possible (deadlock), or `max_virtual_time`
  // is exceeded (a runaway guard; kSimTimeNever disables it), or a layer calls Fail.
  RunResult Run(SimTime max_virtual_time = kSimTimeNever);

  // Ends the run softly: once the current event or Step() returns, Run stops with completed =
  // false and `reason` in deadlock_report, as the virtual-time cap does. The first reason
  // stands, and a failed machine stays failed.
  void Fail(std::string reason) {
    if (failure_.empty()) {
      failure_ = std::move(reason);
    }
  }

 private:
  // A runnable host's place in the runnable heap. The clock is cached when the host is refreshed;
  // the NodeHost contract keeps it current until the next refresh.
  struct RunnableSlot {
    SimTime clock;
    NodeId id;
    bool operator<(const RunnableSlot& other) const {
      return clock != other.clock ? clock < other.clock : id < other.id;
    }
  };

  // Applies the fault plan (drop/duplicate/delay/stall) to one planned delivery.
  void InjectAndDeliver(Datagram d, SimTime at);
  void Deliver(NodeId dst, Datagram d, SimTime at);
  std::string BuildDeadlockReport() const;

  // Re-reads host `id`'s runnability and clock into the runnable heap. Called after the host's
  // Step() and after every event addressed to it.
  void Refresh(NodeId id);
  // Moves `slot` into the heap hole at `i`, sifting it up or down until the heap order holds.
  void Sift(size_t i, RunnableSlot slot);
  // Debug cross-check: the heap root is the runnable host with the lowest (clock, id) that a scan
  // of every host finds, and its cached clock is current.
  bool HeapRootMatchesScan() const;

  // Logs the decision to the injection ring, and emits an injection instant on
  // (node, kInjectionTid) at `at` when tracing is on.
  void InjectionInstant(const Datagram& d, const char* what, SimTime at);

  std::unique_ptr<NetworkModel> network_;
  CostModel costs_;
  FaultInjector injector_;
  TraceRecorder* trace_ = nullptr;
  std::vector<NodeHost*> hosts_;
  // Runnable hosts as an indexed binary min-heap on (clock, id), the order Run steps them in.
  std::vector<RunnableSlot> runnable_;
  std::vector<int> heap_index_;  // per host: its index in runnable_, or -1 when not runnable
  // The host inside Step() and its causal horizon, memoized before the Step() began.
  NodeId stepping_ = kNoNode;
  SimTime stepping_horizon_ = kSimTimeNever;
  EventQueue events_;
  MessageStats net_stats_;
  SimTime lookahead_ = Microseconds(200.0);
  uint64_t events_dispatched_ = 0;
  std::string failure_;  // set by Fail
  std::array<InjectionNote, kInjectionLogCapacity> injection_log_{};
  uint64_t injections_seen_ = 0;
};

}  // namespace dfil::sim

#endif  // DFIL_SIM_MACHINE_H_
