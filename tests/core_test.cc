// Tests for the Filaments runtime mechanisms: pattern recognition, fault frontloading, the
// binomial distribution tree (paper Figure 2), pruning, stealing, reductions, and determinism.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/cluster.h"
#include "src/core/forkjoin.h"
#include "src/core/global_array.h"
#include "src/core/node_runtime.h"
#include "src/core/pool_engine.h"

namespace dfil::core {
namespace {

int64_t g_counter = 0;

void CountFilament(NodeEnv&, int64_t, int64_t, int64_t) { ++g_counter; }

// --- Pattern recognition -------------------------------------------------------------------------

TEST(PatternRecognitionTest, AffineStripsRunInlined) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  g_counter = 0;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    const PoolHandle pool = env.CreatePool();
    for (int i = 0; i < 1000; ++i) {
      env.CreateFilament(pool, &CountFilament, i, 2 * i, 7);
    }
    env.RunPools();
  });
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(g_counter, 1000);
  EXPECT_EQ(r.nodes[0].filaments.filaments_run_inlined, 1000u);
}

TEST(PatternRecognitionTest, NonAffineArgumentsUseDescriptorPath) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  g_counter = 0;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    const PoolHandle pool = env.CreatePool();
    for (int i = 0; i < 100; ++i) {
      env.CreateFilament(pool, &CountFilament, (i * i) % 31, 0, 0);
    }
    env.RunPools();
  });
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(g_counter, 100);
  EXPECT_EQ(r.nodes[0].filaments.filaments_run_inlined, 0u);
}

TEST(PatternRecognitionTest, InliningIsCheaperInVirtualTime) {
  auto run_with = [&](bool affine) {
    ClusterConfig cfg;
    cfg.nodes = 1;
    Cluster cluster(cfg);
    RunReport r = cluster.Run([&](NodeEnv& env) {
      const PoolHandle pool = env.CreatePool();
      for (int i = 0; i < 20000; ++i) {
        env.CreateFilament(pool, &CountFilament, affine ? i : (i * i) % 97, 0, 0);
      }
      env.RunPools();
    });
    return r.makespan;
  };
  const SimTime inlined = run_with(true);
  const SimTime generic = run_with(false);
  // Paper Figure 9: 0.126 us vs 0.643 us per filament switch.
  EXPECT_LT(inlined, generic);
  EXPECT_NEAR(static_cast<double>(generic - inlined) / 20000.0, 643.0 - 126.0, 60.0);
}

TEST(PatternRecognitionTest, MixedPoolSplitsIntoRuns) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  g_counter = 0;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    const PoolHandle pool = env.CreatePool();
    for (int i = 0; i < 100; ++i) {  // affine run
      env.CreateFilament(pool, &CountFilament, i, 0, 0);
    }
    for (int i = 0; i < 5; ++i) {  // too short / irregular tail
      env.CreateFilament(pool, &CountFilament, (i * i) % 7, 0, 0);
    }
    env.RunPools();
  });
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(g_counter, 105);
  EXPECT_GE(r.nodes[0].filaments.filaments_run_inlined, 100u);
}

// --- Fault frontloading (paper §2.2) -------------------------------------------------------------

std::map<int, std::vector<int>> g_sweep_orders;  // node -> pool execution order (by marker)

void MarkPool(NodeEnv& env, int64_t marker, int64_t node, int64_t) {
  if (static_cast<NodeId>(node) == env.node()) {
    g_sweep_orders[static_cast<int>(env.node())].push_back(static_cast<int>(marker));
  }
  env.ChargeWork(Microseconds(3.0));
}

TEST(FrontloadingTest, FaultingPoolsRunFirstOnLaterIterations) {
  // Node 1 has three pools; pool 2's filaments read node 0's page and fault every iteration
  // (implicit-invalidate). After the first sweep, pool 2 must be scheduled first.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  Cluster cluster(cfg);
  auto remote = GlobalRef<double>::Alloc(cluster.layout(), "remote");

  struct Ctx {
    GlobalAddr addr;
  };
  static Ctx ctx;
  ctx.addr = remote.addr();

  static std::vector<int> order_per_sweep;
  g_sweep_orders.clear();
  order_per_sweep.clear();

  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      env.Write<double>(ctx.addr, 1.0);
    }
    env.Barrier();
    if (env.node() == 1) {
      // Pool 0 and 1: local-only; pool 2: faults on node 0's page.
      for (int q = 0; q < 3; ++q) {
        const PoolHandle pool = env.CreatePool();
        for (int i = 0; i < 4; ++i) {
          if (q == 2) {
            env.CreateFilament(
                pool,
                +[](NodeEnv& e, int64_t, int64_t, int64_t) {
                  e.Read<double>(ctx.addr);
                  e.ChargeWork(Microseconds(3.0));
                },
                q, 1, 0);
          } else {
            env.CreateFilament(pool, &MarkPool, q, 1, 0);
          }
        }
      }
      int sweeps = 0;
      env.RunIterative([&](int iter) {
        order_per_sweep.push_back(env.runtime().pools().last_sweep_order().front());
        env.Barrier();
        sweeps = iter + 1;
        return iter + 1 < 3;
      });
      EXPECT_EQ(sweeps, 3);
    } else {
      for (int iter = 0; iter < 3; ++iter) {
        env.Barrier();
      }
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  ASSERT_EQ(order_per_sweep.size(), 3u);
  // Sweep 0 runs in creation order (pool 0 first); later sweeps frontload the faulting pool 2.
  EXPECT_EQ(order_per_sweep[0], 0);
  EXPECT_EQ(order_per_sweep[1], 2);
  EXPECT_EQ(order_per_sweep[2], 2);
}

// --- Fork/join mechanisms ------------------------------------------------------------------------

FjResult LeafTask(NodeEnv& env, const FjArgs& a) {
  env.ChargeWork(Microseconds(50.0));
  return FjResult{0.0, a.i[0]};
}

FjResult SpreadTask(NodeEnv& env, const FjArgs& a) {
  const int64_t depth = a.i[0];
  env.ChargeWork(Microseconds(30.0));
  if (depth == 0) {
    return LeafTask(env, a);
  }
  FjArgs child;
  child.i[0] = depth - 1;
  FjHandle l = env.Fork(&SpreadTask, child);
  FjHandle r = env.Fork(&SpreadTask, child);
  FjResult rl = env.Join(l);
  FjResult rr = env.Join(r);
  return FjResult{0.0, rl.i + rr.i + 1};
}

// Each node's remaining fork/join tree children after one fork/join phase of a single leaf task.
std::map<int, std::vector<NodeId>> TreeChildren(int nodes) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  Cluster cluster(cfg);
  std::map<int, std::vector<NodeId>> children;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    FjArgs args;
    args.i[0] = 0;
    env.RunForkJoin(&LeafTask, args);  // activates the engine; tree computed at entry
    children[env.node()] = env.runtime().fj().tree_children();
  });
  EXPECT_TRUE(r.completed) << r.deadlock_report;
  return children;
}

TEST(ForkJoinTreeTest, BinomialChildrenMatchFigure2) {
  // For 16 nodes, Figure 2: node 0's children are 8,4,2,1; node 8's are 12,10,9; node 4's: 6,5.
  // tree_children() reports the *remaining* (unused) children; a single leaf task forks nothing,
  // so the full lists remain.
  std::map<int, std::vector<NodeId>> children = TreeChildren(16);
  EXPECT_EQ(children[0], (std::vector<NodeId>{8, 4, 2, 1}));
  EXPECT_EQ(children[8], (std::vector<NodeId>{12, 10, 9}));
  EXPECT_EQ(children[4], (std::vector<NodeId>{6, 5}));
  EXPECT_EQ(children[5], (std::vector<NodeId>{}));
  EXPECT_EQ(children[15], (std::vector<NodeId>{}));
  // At 13 nodes the tree is Figure 2's without nodes 13-15: node 12 keeps no child.
  children = TreeChildren(13);
  EXPECT_EQ(children[0], (std::vector<NodeId>{8, 4, 2, 1}));
  EXPECT_EQ(children[8], (std::vector<NodeId>{12, 10, 9}));
  EXPECT_EQ(children[4], (std::vector<NodeId>{6, 5}));
  EXPECT_EQ(children[12], (std::vector<NodeId>{}));
}

TEST(ForkJoinTreeTest, WorkDoublesAcrossTheCluster) {
  // A deep fork tree must reach every node through tree distribution alone (stealing off).
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.fj.steal_enabled = false;
  cfg.wake_at_front = true;
  Cluster cluster(cfg);
  int64_t total = 0;
  RunReport r = cluster.Run([&](NodeEnv& env) {
    FjArgs args;
    args.i[0] = 10;  // 2^10 leaves
    FjResult res = env.RunForkJoin(&SpreadTask, args);
    if (env.node() == 0) {
      total = res.i;
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_EQ(total, (1 << 10) - 1);  // interior nodes each contribute 1; leaves return 0
  int nodes_that_ran = 0;
  for (const auto& nr : r.nodes) {
    if (nr.filaments.filaments_run > 0) {
      ++nodes_that_ran;
    }
  }
  EXPECT_EQ(nodes_that_ran, 8) << "tree distribution must reach every node";
}

TEST(ForkJoinTest, PruningConvertsForksToCalls) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.fj.prune_threshold = 2;
  Cluster cluster(cfg);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    FjArgs args;
    args.i[0] = 8;
    env.RunForkJoin(&SpreadTask, args);
  });
  ASSERT_TRUE(r.completed);
  const auto& fs = r.nodes[0].filaments;
  EXPECT_GT(fs.forks_pruned, fs.forks_local) << "deep forks should prune into plain calls";
}

TEST(ForkJoinTest, PruneThresholdControlsQueueDepth) {
  for (int threshold : {1, 16}) {
    ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.fj.prune_threshold = threshold;
    Cluster cluster(cfg);
    RunReport r = cluster.Run([&](NodeEnv& env) {
      FjArgs args;
      args.i[0] = 8;
      env.RunForkJoin(&SpreadTask, args);
    });
    ASSERT_TRUE(r.completed);
    // Higher threshold => more queued filaments before pruning kicks in.
    if (threshold == 1) {
      EXPECT_LT(r.nodes[0].filaments.forks_local, 20u);
    } else {
      EXPECT_GT(r.nodes[0].filaments.forks_local, 20u);
    }
  }
}

TEST(ForkJoinDeathTest, ForkOutsideRunForkJoinDies) {
  // Fork answers a pruned fork inline; a fork outside a fork/join phase must still reach the
  // check in the slow path.
  ClusterConfig cfg;
  cfg.nodes = 1;
  EXPECT_DEATH(
      {
        Cluster cluster(cfg);
        cluster.Run([](NodeEnv& env) { env.Fork(&LeafTask, FjArgs{}); });
      },
      "Fork outside RunForkJoin");
}

// Range-splitting tree over 256 leaves; the leftmost eighth carries coarse 10 ms leaves (the
// quadrature-style imbalance), the rest are 50 us.
FjResult ImbalancedRange(NodeEnv& env, const FjArgs& a) {
  const int64_t lo = a.i[0];
  const int64_t hi = a.i[1];
  if (hi - lo == 1) {
    env.ChargeWork(lo < 32 ? Milliseconds(10.0) : Microseconds(50.0));
    return FjResult{1.0, 0};
  }
  const int64_t mid = lo + (hi - lo) / 2;
  FjArgs left;
  left.i[0] = lo;
  left.i[1] = mid;
  FjArgs right;
  right.i[0] = mid;
  right.i[1] = hi;
  FjHandle l = env.Fork(&ImbalancedRange, left);
  FjHandle r = env.Fork(&ImbalancedRange, right);
  FjResult rl = env.Join(l);
  FjResult rr = env.Join(r);
  return FjResult{rl.d + rr.d, 0};
}

TEST(ForkJoinStealTest, StealingBalancesSkewedWork) {
  auto run_with = [&](bool steal) {
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.fj.steal_enabled = steal;
    cfg.wake_at_front = true;
    Cluster cluster(cfg);
    double total = 0;
    RunReport r = cluster.Run([&](NodeEnv& env) {
      FjArgs args;
      args.i[0] = 0;
      args.i[1] = 256;
      const FjResult res = env.RunForkJoin(&ImbalancedRange, args);
      if (env.node() == 0) {
        total = res.d;
      }
    });
    EXPECT_TRUE(r.completed) << r.deadlock_report;
    EXPECT_EQ(total, 256.0);
    return r;
  };
  RunReport with = run_with(true);
  RunReport without = run_with(false);
  // 320 ms of heavy leaves is concentrated in one subtree: stealing must shorten the makespan.
  EXPECT_LT(with.makespan, without.makespan);
  uint64_t steals = 0;
  for (const auto& nr : with.nodes) {
    steals += nr.filaments.steals_succeeded;
  }
  EXPECT_GT(steals, 0u);
}

// --- Reductions ----------------------------------------------------------------------------------

struct ReduceCase {
  ReduceOp op;
  double expected_for_8;  // inputs are node+1 for nodes 0..7
};

class ReduceOpTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReduceOpTest, AllOpsAllNodeCounts) {
  const auto [nodes, op_index] = GetParam();
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin, ReduceOp::kLogicalAnd,
                          ReduceOp::kLogicalOr};
  const ReduceOp op = ops[op_index];
  ClusterConfig cfg;
  cfg.nodes = nodes;
  Cluster cluster(cfg);
  std::vector<double> results(nodes);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    const double mine = op == ReduceOp::kLogicalAnd || op == ReduceOp::kLogicalOr
                            ? (env.node() % 2 == 0 ? 1.0 : 0.0)
                            : env.node() + 1.0;
    results[env.node()] = env.Reduce(mine, op);
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  double expected = 0;
  switch (op) {
    case ReduceOp::kSum:
      expected = nodes * (nodes + 1) / 2.0;
      break;
    case ReduceOp::kMax:
      expected = nodes;
      break;
    case ReduceOp::kMin:
      expected = 1.0;
      break;
    case ReduceOp::kLogicalAnd:
      expected = nodes == 1 ? 1.0 : 0.0;
      break;
    case ReduceOp::kLogicalOr:
      expected = 1.0;
      break;
    default:
      break;
  }
  for (double v : results) {
    EXPECT_DOUBLE_EQ(v, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReduceOpTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 16),
                                            ::testing::Values(0, 1, 2, 3, 4)));

TEST(ReduceTest, MessageCountIsLinear) {
  // Tournament + ack + broadcast: O(p) messages per reduction (paper §4.5).
  for (int nodes : {2, 4, 8, 16}) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    Cluster cluster(cfg);
    RunReport r = cluster.Run([&](NodeEnv& env) { env.Barrier(); });
    ASSERT_TRUE(r.completed);
    // (p-1) reports + (p-1) acks + 1 broadcast.
    EXPECT_EQ(r.net.messages_sent, static_cast<uint64_t>(2 * (nodes - 1) + 1));
  }
  // A reliable done is one request and one reply per other node, under either combining barrier.
  for (const auto barrier :
       {ClusterConfig::BarrierKind::kTournamentBroadcast, ClusterConfig::BarrierKind::kCentral}) {
    for (int nodes : {2, 4, 5, 8, 13, 16}) {
      ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.barrier = barrier;
      cfg.reliable_broadcast = true;
      Cluster cluster(cfg);
      RunReport r = cluster.Run([&](NodeEnv& env) { env.Barrier(); });
      ASSERT_TRUE(r.completed);
      // (p-1) reports + (p-1) acks + (p-1) dones + (p-1) done acks.
      EXPECT_EQ(r.net.messages_sent, static_cast<uint64_t>(4 * (nodes - 1))) << "p=" << nodes;
    }
  }
}

TEST(ReduceTest, ManySequentialReductionsStayConsistent) {
  ClusterConfig cfg;
  cfg.nodes = 5;
  Cluster cluster(cfg);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int i = 0; i < 50; ++i) {
      const double sum = env.Reduce(i * 1.0, ReduceOp::kSum);
      ASSERT_DOUBLE_EQ(sum, i * 5.0);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
}

TEST(ReduceTest, ReliableBroadcastSurvivesLoss) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.fault_plan.loss_rate = 0.2;
  cfg.reliable_broadcast = true;
  cfg.packet.retransmit_timeout = Milliseconds(20.0);
  Cluster cluster(cfg);
  RunReport r = cluster.Run([&](NodeEnv& env) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_DOUBLE_EQ(env.Reduce(1.0, ReduceOp::kSum), 4.0);
    }
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
}

TEST(ReduceTest, RetransmissionLimitEndsTheRunWithAReport) {
  // Every reduce-up node 1 sends is lost, so its request reaches the retransmission limit. The
  // run must end with a report naming the request, not abort the process.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.reliable_broadcast = true;
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.packet.retransmit_limit = 5;
  sim::FaultRule lose_up;
  lose_up.src = 1;
  lose_up.type = static_cast<uint32_t>(net::Service::kReduceUp);
  lose_up.drop = 1.0;
  cfg.fault_plan.rules.push_back(lose_up);
  Cluster cluster(cfg);
  RunReport r = cluster.Run([](NodeEnv& env) { env.Barrier(); });
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NE(r.deadlock_report.find("node 1: request 1 to node 0 (service 10 reduce_up) exceeded "
                                   "the retransmission limit"),
            std::string::npos)
      << r.deadlock_report;
  EXPECT_EQ(r.nodes[1].packet.retransmissions, 4u);
  EXPECT_EQ(r.flight.node_events.size(), 2u);  // the end-of-run flight snapshot is still taken
}

// --- Determinism ---------------------------------------------------------------------------------

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [] {
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 99;
    Cluster cluster(cfg);
    auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), 512, "arr");
    RunReport r = cluster.Run([&](NodeEnv& env) {
      if (env.node() == 0) {
        for (int i = 0; i < 512; ++i) {
          arr.Write(env, i, i * 0.5);
        }
      }
      env.Barrier();
      double local = 0;
      for (int i = env.node(); i < 512; i += env.nodes()) {
        local += arr.Read(env, i);
      }
      env.Reduce(local, ReduceOp::kSum);
    });
    return r;
  };
  RunReport a = run_once();
  RunReport b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(a.nodes[n].dsm.read_faults, b.nodes[n].dsm.read_faults);
    EXPECT_EQ(a.nodes[n].breakdown.Total(), b.nodes[n].breakdown.Total());
  }
}

TEST(DeterminismTest, LossyRunsAreAlsoDeterministic) {
  auto run_once = [] {
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.seed = 5;
    cfg.fault_plan.loss_rate = 0.1;
    cfg.reliable_broadcast = true;
    Cluster cluster(cfg);
    auto x = GlobalRef<double>::Alloc(cluster.layout(), "x");
    RunReport r = cluster.Run([&](NodeEnv& env) {
      if (env.node() == 0) {
        x.Write(env, 3.0);
      }
      env.Barrier();
      env.Reduce(x.Read(env), ReduceOp::kSum);
    });
    return r;
  };
  RunReport a = run_once();
  RunReport b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.net.messages_dropped, b.net.messages_dropped);
}

// --- Server thread management --------------------------------------------------------------------

TEST(ServerThreadTest, FaultsSpawnReplacementRunners) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  auto arr = GlobalArray1D<double>::Alloc(cluster.layout(), 4096, "arr");
  RunReport r = cluster.Run([&](NodeEnv& env) {
    if (env.node() == 0) {
      for (int i = 0; i < 4096; ++i) {
        arr.Write(env, i, 1.0);
      }
    }
    env.Barrier();
    if (env.node() == 1) {
      // Four pools touching different remote pages: each fault suspends one pool and starts a
      // server thread for the next.
      for (int q = 0; q < 4; ++q) {
        const PoolHandle pool = env.CreatePool();
        for (int i = 0; i < 8; ++i) {
          env.CreateFilament(
              pool,
              +[](NodeEnv& e, int64_t idx, int64_t, int64_t) {
                e.ChargeWork(Microseconds(5.0));
                e.Read<double>(static_cast<GlobalAddr>(idx));
              },
              static_cast<int64_t>(arr.addr(static_cast<size_t>(q) * 1024 + i)), 0, 0);
        }
      }
      env.RunPools();
    }
    env.Barrier();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  EXPECT_GT(r.nodes[1].filaments.server_threads_started, 1u);
  EXPECT_GT(r.nodes[1].filaments.pool_suspensions, 0u);
}

}  // namespace
}  // namespace dfil::core
