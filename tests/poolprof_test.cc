// Per-pool rows of the time ledger (DESIGN.md §14).
//
// The load-bearing properties:
//   * Deterministic fn ids — filament-function ids are assigned by first-registration order, so
//     they agree across nodes of an SPMD run and across repeated runs.
//   * The metrics "pools" section sums to the node: one residual row carries all serve time and
//     the run time outside any pool. The exact partition at SimTime resolution is checked over
//     the pinned runs in ledger_test.cc; in the JSON it holds to ±1 µs per row.
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/jacobi.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

core::ClusterConfig ProfiledConfig() {
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  return cfg;
}

// The booked pool rows of one node, keyed by pool id.
std::map<int, TimeLedger::PoolRow> PoolRows(const core::NodeReport& n) {
  std::map<int, TimeLedger::PoolRow> rows;
  const std::vector<TimeLedger::PoolRow>& pools = n.breakdown.pools();
  for (size_t pool = 0; pool < pools.size(); ++pool) {
    if (pools[pool].booked) {
      rows[static_cast<int>(pool)] = pools[pool];
    }
  }
  return rows;
}

core::RunReport QuickJacobi(const core::ClusterConfig& cfg) {
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 3;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  return run.report;
}

TEST(PoolProfTest, FnIdsDeterministicAcrossNodesAndRuns) {
  core::RunReport r1 = QuickJacobi(ProfiledConfig());
  core::RunReport r2 = QuickJacobi(ProfiledConfig());
  ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
  // SPMD: every node registers filament functions in the same order, so the set of fn ids in
  // play agrees cluster-wide.
  std::map<int, int> fn_of_pool;  // pool id -> fn id, from node 0
  for (const auto& [pool, ledger] : PoolRows(r1.nodes[0])) {
    fn_of_pool[pool] = ledger.fn;
  }
  for (const core::NodeReport& n : r1.nodes) {
    // Jacobi DF runs three pools per node; each must have observed filaments and a bound fn.
    EXPECT_FALSE(PoolRows(n).empty()) << "node " << n.node;
    for (const auto& [pool, ledger] : PoolRows(n)) {
      EXPECT_GE(ledger.fn, 0) << "node " << n.node << " pool " << pool;
      EXPECT_GT(ledger.filaments_run, 0u) << "node " << n.node << " pool " << pool;
      auto it = fn_of_pool.find(pool);
      ASSERT_NE(it, fn_of_pool.end()) << "node " << n.node << " pool " << pool;
      EXPECT_EQ(ledger.fn, it->second) << "node " << n.node << " pool " << pool;
    }
  }
  // Determinism: an identical config reproduces the ledgers exactly.
  for (size_t i = 0; i < r1.nodes.size(); ++i) {
    EXPECT_EQ(r1.nodes[i].breakdown.other_run(), r2.nodes[i].breakdown.other_run())
        << "node " << i;
    const std::map<int, TimeLedger::PoolRow> p1 = PoolRows(r1.nodes[i]);
    const std::map<int, TimeLedger::PoolRow> p2 = PoolRows(r2.nodes[i]);
    ASSERT_EQ(p1.size(), p2.size()) << "node " << i;
    for (const auto& [pool, l1] : p1) {
      const auto& l2 = p2.at(pool);
      EXPECT_EQ(l1.run, l2.run) << "node " << i << " pool " << pool;
      EXPECT_EQ(l1.blocked, l2.blocked) << "node " << i << " pool " << pool;
      EXPECT_EQ(l1.faults, l2.faults) << "node " << i << " pool " << pool;
      EXPECT_EQ(l1.filaments_run, l2.filaments_run) << "node " << i << " pool " << pool;
      EXPECT_EQ(l1.fn, l2.fn) << "node " << i << " pool " << pool;
    }
  }
}

TEST(PoolProfTest, MetricsExportCarriesPoolsAndResidual) {
  core::RunReport r = QuickJacobi(ProfiledConfig());
  std::ostringstream os;
  core::WriteMetricsJson(r, "poolprof_on", os);
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;

  // Cluster-wide rollup: at least the pool fns plus the residual row.
  ASSERT_FALSE(run.pools_by_fn.empty());
  bool rollup_residual = false;
  for (const auto& row : run.pools_by_fn) {
    rollup_residual = rollup_residual || (row.fn == -1);
  }
  EXPECT_TRUE(rollup_residual);

  ASSERT_EQ(run.per_node.size(), r.nodes.size());
  for (size_t i = 0; i < run.per_node.size(); ++i) {
    const auto& node = run.per_node[i];
    ASSERT_FALSE(node.pools.empty()) << "node " << node.node;
    // Exactly one residual row per node, carrying all serve time (handler context serves the
    // cluster, not the pool it preempts) plus run time outside any pool.
    double run_sum = 0.0;
    double serve_sum = 0.0;
    size_t residuals = 0;
    for (const auto& row : node.pools) {
      run_sum += row.run_us;
      serve_sum += row.serve_us;
      if (row.pool == -1) {
        ++residuals;
        EXPECT_EQ(row.fn, -1);
        EXPECT_NEAR(row.serve_us, node.serve_us, 1.0) << "node " << node.node;
      } else {
        EXPECT_EQ(row.serve_us, 0.0) << "node " << node.node << " pool " << row.pool;
      }
    }
    EXPECT_EQ(residuals, 1u) << "node " << node.node;
    // In JSON the partition holds to microsecond rounding only (±1 µs per row); the exact
    // SimTime identity is checked in-process by ExactPartitionAtSimTimeResolution.
    EXPECT_NEAR(run_sum, node.run_us, static_cast<double>(node.pools.size()))
        << "node " << node.node;
    EXPECT_NEAR(serve_sum, node.serve_us, 1.0) << "node " << node.node;
  }
}

}  // namespace
}  // namespace dfil
