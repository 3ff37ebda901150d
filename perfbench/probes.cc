#include "perfbench/probes.h"

#include <algorithm>
#include <memory>

#include "src/core/dfil.h"
#include "src/sim/event_queue.h"
#include "src/sim/machine.h"
#include "src/sim/network.h"
#include "src/threads/server_thread.h"

namespace perfbench {
namespace {

using namespace dfil;

// Keeps a value the compiler could otherwise prove unused.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double NsPerCall(int64_t t0, int64_t t1, int64_t calls) {
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

core::ClusterConfig OneNode(int nodes = 1) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  return cfg;
}

void RunOrDie(core::Cluster& cluster, const core::Cluster::NodeMain& main) {
  const core::RunReport report = cluster.Run(main);
  DFIL_CHECK(report.completed) << "probe cluster did not complete: " << report.deadlock_report;
}

// One Schedule + Pop + dispatch on a queue holding a steady 256 pending events.
double EventQueueProbe(int64_t calls) {
  sim::EventQueue queue;
  int64_t fired = 0;
  constexpr int kDepth = 256;
  for (int i = 0; i < kDepth; ++i) {
    queue.Schedule(i, [&fired] { ++fired; });
  }
  const int64_t t0 = CpuNowNs();
  for (int64_t i = 0; i < calls; ++i) {
    queue.Schedule(kDepth + i, [&fired] { ++fired; });
    queue.Pop().second();
  }
  const int64_t t1 = CpuNowNs();
  Sink(fired);
  return NsPerCall(t0, t1, calls);
}

// A node that is always runnable at a fixed clock, so CausalHorizon scans every host.
class StubHost final : public sim::NodeHost {
 public:
  StubHost(NodeId id, SimTime clock) : id_(id), clock_(clock) {}
  NodeId id() const override { return id_; }
  SimTime Clock() const override { return clock_; }
  bool Runnable() const override { return true; }
  bool Done() const override { return false; }
  void Step() override {}
  void AdvanceTo(SimTime t) override { clock_ = std::max(clock_, t); }
  void OnDatagram(sim::Datagram) override {}
  std::string DescribeBlocked() const override { return "stub"; }

 private:
  NodeId id_;
  SimTime clock_;
};

// Machine::ChargeLimit over `p` stub hosts, cycling the charging node.
double ChargeLimitProbe(int p, int64_t calls) {
  const sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  sim::Machine machine(std::make_unique<sim::SwitchedNetwork>(costs, p), costs);
  std::vector<std::unique_ptr<StubHost>> hosts;
  for (NodeId n = 0; n < p; ++n) {
    hosts.push_back(std::make_unique<StubHost>(n, Microseconds(10.0 * n)));
    machine.AddHost(hosts.back().get());
  }
  SimTime acc = 0;
  const int64_t t0 = CpuNowNs();
  for (int64_t i = 0; i < calls; ++i) {
    acc += machine.ChargeLimit(static_cast<NodeId>(i % p));
  }
  const int64_t t1 = CpuNowNs();
  Sink(acc);
  return NsPerCall(t0, t1, calls);
}

// NodeEnv::Read or Write on a page this (only) node owns: the DSM hit path.
double DsmHitProbe(bool write, int64_t calls) {
  core::Cluster cluster(OneNode());
  constexpr size_t kElems = 512;  // one 4 KB page of doubles
  auto arr = core::GlobalArray1D<double>::Alloc(cluster.layout(), kElems, "probe");
  double ns = 0;
  RunOrDie(cluster, [&](core::NodeEnv& env) {
    arr.Write(env, 0, 1.0);
    double acc = 0;
    const int64_t t0 = CpuNowNs();
    if (write) {
      for (int64_t i = 0; i < calls; ++i) {
        arr.Write(env, static_cast<size_t>(i) % kElems, static_cast<double>(i));
      }
    } else {
      for (int64_t i = 0; i < calls; ++i) {
        acc += arr.Read(env, static_cast<size_t>(i) % kElems);
      }
    }
    ns = NsPerCall(t0, CpuNowNs(), calls);
    Sink(acc);
  });
  return ns;
}

// A 2-node SendData/RecvData ping-pong, timed on node 0 across the whole exchange (the
// simulator is single-threaded, so this covers both nodes' host work).
double RoundTripProbe(int64_t calls) {
  core::Cluster cluster(OneNode(2));
  double ns = 0;
  RunOrDie(cluster, [&](core::NodeEnv& env) {
    const int64_t t0 = CpuNowNs();
    for (int64_t i = 0; i < calls; ++i) {
      if (env.node() == 0) {
        env.SendValue<int64_t>(1, 1, i);
        DFIL_CHECK_EQ(env.RecvValue<int64_t>(1, 2), i);
      } else {
        env.SendValue<int64_t>(0, 2, env.RecvValue<int64_t>(0, 1));
      }
    }
    if (env.node() == 0) {
      ns = NsPerCall(t0, CpuNowNs(), calls);
    }
  });
  return ns;
}

// One ThreadSystem::SwitchTo: host -> server thread -> host.
double SwitchProbe(int64_t calls) {
  threads::ThreadSystem sys(threads::DefaultContextBackend());
  threads::ServerThread* t = sys.Create([&sys] {
    for (;;) {
      sys.current()->set_state(threads::ThreadState::kReady);
      sys.SwitchToHost();
    }
  });
  const int64_t t0 = CpuNowNs();
  for (int64_t i = 0; i < calls; ++i) {
    sys.SwitchTo(t);
  }
  return NsPerCall(t0, CpuNowNs(), calls);
}

// ThreadSystem::Create of a trivial thread, run to completion, then Recycle.
double CreateProbe(int64_t calls) {
  threads::ThreadSystem sys(threads::DefaultContextBackend());
  const int64_t t0 = CpuNowNs();
  for (int64_t i = 0; i < calls; ++i) {
    threads::ServerThread* t = sys.Create([] {});
    sys.SwitchTo(t);
    sys.Recycle(t);
  }
  return NsPerCall(t0, CpuNowNs(), calls);
}

void NopFilament(core::NodeEnv&, int64_t, int64_t, int64_t) {}

// RunPools over one pool of affine (pattern-recognized strip) filaments on one node.
double StripFilamentProbe(int64_t calls) {
  core::Cluster cluster(OneNode());
  double ns = 0;
  RunOrDie(cluster, [&](core::NodeEnv& env) {
    const core::PoolHandle pool = env.CreatePool();
    for (int64_t i = 0; i < calls; ++i) {
      env.CreateFilament(pool, &NopFilament, i, 0, 0);
    }
    const int64_t t0 = CpuNowNs();
    env.RunPools();
    ns = NsPerCall(t0, CpuNowNs(), calls);
  });
  return ns;
}

core::FjResult Leaf(core::NodeEnv&, const core::FjArgs& args) {
  return core::FjResult{0, args.i[0]};
}

core::FjResult ForkJoinRoot(core::NodeEnv& env, const core::FjArgs& args) {
  core::FjResult sum;
  for (int64_t i = 0; i < args.i[0]; ++i) {
    core::FjArgs child;
    child.i[0] = i;
    core::FjHandle h = env.Fork(&Leaf, child);
    sum.i += env.Join(h).i;
  }
  return sum;
}

// One Fork + Join of a trivial child on a 1-node cluster.
double ForkJoinProbe(int64_t calls) {
  core::Cluster cluster(OneNode());
  double ns = 0;
  RunOrDie(cluster, [&](core::NodeEnv& env) {
    core::FjArgs args;
    args.i[0] = calls;
    const int64_t t0 = CpuNowNs();
    const core::FjResult r = env.RunForkJoin(&ForkJoinRoot, args);
    ns = NsPerCall(t0, CpuNowNs(), calls);
    DFIL_CHECK_EQ(r.i, calls * (calls - 1) / 2);
  });
  return ns;
}

struct Probe {
  const char* name;
  int64_t calls;
  double (*fn)(int64_t calls);
};

}  // namespace

std::vector<ProbeResult> RunProbes(bool smoke, SpanLog& spans) {
  const Probe probes[] = {
      {"sim.event_queue_ns", 200000, &EventQueueProbe},
      {"sim.charge_limit_ns.p8", 1000000, [](int64_t n) { return ChargeLimitProbe(8, n); }},
      {"sim.charge_limit_ns.p64", 200000, [](int64_t n) { return ChargeLimitProbe(64, n); }},
      {"dsm.read_hit_ns", 5000000, [](int64_t n) { return DsmHitProbe(false, n); }},
      {"dsm.write_hit_ns", 5000000, [](int64_t n) { return DsmHitProbe(true, n); }},
      {"net.roundtrip_ns", 20000, &RoundTripProbe},
      {"threads.switch_ns", 500000, &SwitchProbe},
      {"threads.create_ns", 500000, &CreateProbe},
      {"core.strip_filament_ns", 500000, &StripFilamentProbe},
      {"core.fork_join_ns", 200000, &ForkJoinProbe},
  };
  constexpr int kReps = 5;
  std::vector<ProbeResult> out;
  for (const Probe& probe : probes) {
    const int64_t calls = smoke ? std::max<int64_t>(probe.calls / 100, 10) : probe.calls;
    ScopedSpan span(spans, std::string("probe.") + probe.name);
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      reps.push_back(probe.fn(calls));
    }
    std::sort(reps.begin(), reps.end());
    out.push_back(ProbeResult{probe.name, reps[kReps / 2]});
  }
  return out;
}

}  // namespace perfbench
