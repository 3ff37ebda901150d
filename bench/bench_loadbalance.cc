// Epoch-driven load balancing (DESIGN.md §13): skewed iterative workload, balancer off vs on.
//
// Eight nodes run the same iterative program — six pools of 32 filaments each, one DSM page per
// pool — but node 0's CPU is 2x slower (every filament charges double there). With a static
// placement the whole cluster idles at every barrier waiting for node 0; with the balancer on,
// the champion reads that skew out of the wait-state ledgers and migrates pools (and re-homes
// their pages) to node 0's neighbors until the arrival spread falls under the trigger.
//
// The headline claim this bench pins: the balanced run finishes at least 15% sooner in virtual
// time than the static run of the identical (config, seed) workload. The in-run DFIL_CHECKs
// enforce it on every invocation; bench/baselines/loadbalance_gate.json holds the counters (and
// makespan) to their recorded values in CI. Both runs validate the grid, so a migrated filament
// that lost or doubled an update would fail loudly, not just slowly.
//
// Sizes are fixed — NOT scaled by --quick — so the checked-in gate baseline holds in both modes.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/core/global_array.h"
#include "src/core/metrics_io.h"
#include "src/core/node_env.h"
#include "src/core/node_runtime.h"

namespace {

using dfil::core::Cluster;
using dfil::core::ClusterConfig;
using dfil::core::GlobalArray2D;
using dfil::core::NodeEnv;
using dfil::core::RunReport;

constexpr int kNodes = 8;
constexpr int kSlowNode = 0;       // edge node: exactly one neighbor to shed work to
constexpr int kSlowFactor = 2;     // the skew the balancer has to discover and undo
constexpr int kPoolsPerNode = 12;
constexpr int kFilamentsPerPool = 16;
constexpr int kIterations = 48;
constexpr dfil::SimTime kPointCost = dfil::Microseconds(150.0);

struct BalanceState {
  GlobalArray2D<double> grid;
};

// One unit of iterative work: bump this filament's cell. The charge depends on the *executing*
// node, so a filament migrated off the slow node genuinely runs faster there.
void WorkFilament(NodeEnv& env, int64_t row, int64_t col, int64_t) {
  auto* st = static_cast<BalanceState*>(env.user_ctx);
  const double v = st->grid.Read(env, static_cast<size_t>(row), static_cast<size_t>(col));
  st->grid.Write(env, static_cast<size_t>(row), static_cast<size_t>(col), v + 1.0);
  env.ChargeWork(kPointCost * (env.node() == kSlowNode ? kSlowFactor : 1));
}

struct BenchRun {
  RunReport report;
  double validation_error = 0.0;  // sum over original-home rows of |cell - iterations|
};

BenchRun RunWorkload(const ClusterConfig& base, bool balance) {
  ClusterConfig cfg = base;
  cfg.balancer.enabled = balance;
  if (balance) {
    // Aggressive hysteresis: the skew is constant, so act on one epoch's evidence and re-measure
    // immediately instead of the conservative defaults tuned for noisy workloads.
    cfg.balancer.balance_patience_epochs = 1;
    cfg.balancer.balance_cooldown_epochs = 1;
  }
  Cluster cluster(cfg);
  const size_t rows = static_cast<size_t>(kNodes) * kPoolsPerNode;
  const size_t cols = cluster.layout().page_size() / sizeof(double);
  auto grid = GlobalArray2D<double>::Alloc(cluster.layout(), rows, cols,
                                           /*pad_rows_to_pages=*/true, "balance_grid");
  for (int node = 0; node < kNodes; ++node) {
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const size_t row = static_cast<size_t>(node) * kPoolsPerNode + p;
      cluster.layout().SetInitialOwner(grid.row_addr(row), cols * sizeof(double), node);
    }
  }

  BenchRun out;
  std::vector<BalanceState> states(kNodes);
  std::vector<double> errors(kNodes, 0.0);
  out.report = cluster.Run([&](NodeEnv& env) {
    BalanceState& st = states[env.node()];
    st.grid = grid;
    env.user_ctx = &st;

    // One page-aligned row per pool: the pool's write footprint is exactly one page, so a
    // migration re-homes one page per pool it moves.
    for (int p = 0; p < kPoolsPerNode; ++p) {
      const auto row = static_cast<int64_t>(env.node()) * kPoolsPerNode + p;
      const dfil::core::PoolHandle pool = env.CreatePool();
      for (int f = 0; f < kFilamentsPerPool; ++f) {
        env.CreateFilament(pool, &WorkFilament, row, f, 0);
      }
    }
    env.RunIterative([&](int iter) {
      env.Reduce(0.0, dfil::core::ReduceOp::kMax);
      return iter + 1 < kIterations;
    });

    // Validation (after the last barrier, off the timed path's interesting part): every cell of
    // this node's original rows must have been bumped exactly once per iteration, wherever the
    // owning pool ended up executing.
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
  return out;
}

uint64_t SumCounter(const RunReport& report, const std::string& name) {
  uint64_t total = 0;
  for (const auto& nr : report.nodes) {
    const auto& counters = nr.metrics.counters();
    if (auto it = counters.find(name); it != counters.end()) {
      total += it->second;
    }
  }
  return total;
}

uint64_t SumPagesRehomed(const RunReport& report) {
  uint64_t total = 0;
  for (const auto& nr : report.nodes) {
    total += nr.dsm.pages_rehomed;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);

  bench::Header("Load balancing (DESIGN.md §13): 8 nodes, node 0 " +
                std::to_string(kSlowFactor) + "x slower, " + std::to_string(kPoolsPerNode) +
                " pools/node x " + std::to_string(kFilamentsPerPool) + " filaments, " +
                std::to_string(kIterations) + " iterations");

  core::ClusterConfig base = bench::PaperConfig(kNodes);
  args.Apply(base);
  base.trace_enabled = true;  // rebalance instants feed `dfil critpath`

  BenchRun stat = RunWorkload(base, /*balance=*/false);
  DFIL_CHECK(stat.report.completed) << stat.report.deadlock_report;
  DFIL_CHECK_EQ(stat.validation_error, 0.0) << "static run produced wrong grid values";
  BenchRun bal = RunWorkload(base, /*balance=*/true);
  DFIL_CHECK(bal.report.completed) << bal.report.deadlock_report;
  DFIL_CHECK_EQ(bal.validation_error, 0.0) << "balanced run produced wrong grid values";

  const uint64_t plans = SumCounter(bal.report, "core.rebalance_plans");
  const uint64_t migrated = SumCounter(bal.report, "core.filaments_migrated");
  const uint64_t rehomed = SumPagesRehomed(bal.report);
  const double win =
      100.0 * (stat.report.seconds() - bal.report.seconds()) / stat.report.seconds();
  std::printf("  static   : makespan %7.3f s\n", stat.report.seconds());
  std::printf("  balanced : makespan %7.3f s  (%+.1f%%)  plans=%llu migrated=%llu rehomed=%llu\n",
              bal.report.seconds(), -win, static_cast<unsigned long long>(plans),
              static_cast<unsigned long long>(migrated), static_cast<unsigned long long>(rehomed));

  bench::JsonReport jr("loadbalance");
  jr.Scalar("nodes", kNodes);
  jr.Scalar("pools_per_node", kPoolsPerNode);
  jr.Scalar("filaments_per_pool", kFilamentsPerPool);
  jr.Scalar("iterations", kIterations);
  jr.AddRow().Set("balanced", 0).Set("seconds", stat.report.seconds());
  jr.AddRow()
      .Set("balanced", 1)
      .Set("seconds", bal.report.seconds())
      .Set("win_pct", win)
      .Set("plans", static_cast<double>(plans))
      .Set("filaments_migrated", static_cast<double>(migrated))
      .Set("pages_rehomed", static_cast<double>(rehomed));
  jr.Write();

  bench::EmitMetrics(stat.report, "loadbalance_static8", &args, "loadbalance");
  bench::EmitMetrics(bal.report, "loadbalance_balanced8", &args, "loadbalance");
  bench::EmitTrace(bal.report, "loadbalance_balanced8");

  // The headline claim, enforced on every run (the gate additionally pins the exact counters).
  DFIL_CHECK_GE(plans, 1u) << "balancer never emitted a plan on a 2x-skewed cluster";
  DFIL_CHECK_GE(migrated, static_cast<uint64_t>(kFilamentsPerPool))
      << "no pool actually migrated";
  DFIL_CHECK_LE(bal.report.makespan * 100, stat.report.makespan * 85)
      << "balanced run won only " << win << "% (claim: at least 15%)";
  return 0;
}
