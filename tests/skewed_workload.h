// A deliberately skewed iterative workload, a miniature of bench_loadbalance, shared by the
// load-balancer tests and the ledger pins: every node owns kPoolsPerNode pools of
// kFilamentsPerPool filaments, one page-aligned grid row per pool, and node 0 charges double for
// every filament. With the balancer off the cluster idles at each barrier waiting for node 0; with
// it on, pools (and their backing pages) should drain to node 0's neighbor.
#ifndef DFIL_TESTS_SKEWED_WORKLOAD_H_
#define DFIL_TESTS_SKEWED_WORKLOAD_H_

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/core/global_array.h"
#include "src/core/node_env.h"

namespace dfil::core::skewed {

inline constexpr int kNodes = 4;
inline constexpr int kSlowNode = 0;
inline constexpr int kSlowFactor = 2;
inline constexpr int kPoolsPerNode = 4;
inline constexpr int kFilamentsPerPool = 8;
// Enough iterations at enough work per filament that a migration's one-time cost (the migrate
// message plus one re-home fault per moved pool, ~4 ms each) amortizes within the run.
inline constexpr int kIterations = 32;
inline constexpr SimTime kPointCost = Microseconds(150.0);

struct LbState {
  GlobalArray2D<double> grid;
};

inline void BumpFilament(NodeEnv& env, int64_t row, int64_t col, int64_t) {
  auto* st = static_cast<LbState*>(env.user_ctx);
  const double v = st->grid.Read(env, static_cast<size_t>(row), static_cast<size_t>(col));
  st->grid.Write(env, static_cast<size_t>(row), static_cast<size_t>(col), v + 1.0);
  env.ChargeWork(kPointCost * (env.node() == kSlowNode ? kSlowFactor : 1));
}

struct LbRun {
  RunReport report;
  double validation_error = 0.0;  // sum over original-home cells of |cell - kIterations|
  std::string trace_json;         // WriteChromeTrace output when the run was traced
};

inline ClusterConfig BaseConfig() {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 7;
  return cfg;
}

// Aggressive hysteresis so the tiny problem emits plans within its 16 epochs.
inline void EnableBalancer(ClusterConfig& cfg) {
  cfg.balancer.enabled = true;
  cfg.balancer.balance_patience_epochs = 1;
  cfg.balancer.balance_cooldown_epochs = 1;
}

// Short retransmission timeouts keep the faulted runs quick; reliable_broadcast is required by
// Validate whenever the plan can drop frames (a lost done broadcast would hang every barrier).
inline ClusterConfig FaultedBalancedConfig() {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  cfg.reliable_broadcast = true;
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.max_virtual_time = Seconds(300.0);
  return cfg;
}

inline LbRun RunSkewed(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  const size_t rows = static_cast<size_t>(kNodes) * kPoolsPerNode;
  const size_t cols = cluster.layout().page_size() / sizeof(double);
  auto grid = GlobalArray2D<double>::Alloc(cluster.layout(), rows, cols,
                                           /*pad_rows_to_pages=*/true, "lb_grid");
  for (int node = 0; node < kNodes; ++node) {
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const size_t row = static_cast<size_t>(node) * kPoolsPerNode + p;
      cluster.layout().SetInitialOwner(grid.row_addr(row), cols * sizeof(double), node);
    }
  }

  LbRun out;
  std::vector<LbState> states(kNodes);
  std::vector<double> errors(kNodes, 0.0);
  out.report = cluster.Run([&](NodeEnv& env) {
    LbState& st = states[env.node()];
    st.grid = grid;
    env.user_ctx = &st;
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const auto row = static_cast<int64_t>(env.node()) * kPoolsPerNode + p;
      const PoolHandle pool = env.CreatePool();
      for (int f = 0; f < kFilamentsPerPool; ++f) {
        env.CreateFilament(pool, &BumpFilament, row, f, 0);
      }
    }
    env.RunIterative([&](int iter) {
      env.Reduce(0.0, ReduceOp::kMax);
      return iter + 1 < kIterations;
    });
    // Wherever each pool ended up executing, every cell of this node's original rows must have
    // been bumped exactly once per iteration — a migrated filament that ran twice, never, or on
    // stale pages shows up here.
    double err = 0.0;
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const size_t row = static_cast<size_t>(env.node()) * kPoolsPerNode + p;
      for (int f = 0; f < kFilamentsPerPool; ++f) {
        err += std::abs(st.grid.Read(env, row, static_cast<size_t>(f)) - kIterations);
      }
    }
    errors[env.node()] = err;
  });
  for (double e : errors) {
    out.validation_error += e;
  }
  if (out.report.trace != nullptr) {
    std::ostringstream os;
    out.report.trace->WriteChromeTrace(os);
    out.trace_json = os.str();
  }
  return out;
}

}  // namespace dfil::core::skewed

#endif  // DFIL_TESTS_SKEWED_WORKLOAD_H_
