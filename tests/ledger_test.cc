// Seven pinned runs and the time ledger (common/ledger.h) over them.
//
// The runs cover every source of a blocked interval: Jacobi at 64 and 13 nodes (the SchedulePin
// configs: page faults, barriers, sweeps), fork/join quadrature (join and call waits),
// bag-of-tasks quadrature (channel waits), and the balanced skewed workload under 5% loss
// (retransmit records, load samples, migrations, the flight ring). Each pin is an FNV-1a hash of
// the run's dfil-metrics-v2 export, plus its dfil-flight-v1 dump for the lossy run, so a change to
// any projection of the ledger, down to the last rounded microsecond, moves a pin. The two Jacobi
// runs also run untraced against the traced pins, so the export cannot depend on tracing.
//
// The two exact-partition tests keep the suite names they had when the wait-state ledgers and
// the pool rows were separate accumulators; both now run over the pinned runs.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/jacobi.h"
#include "src/apps/quadrature.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "src/dsm/coherence_oracle.h"
#include "tests/skewed_workload.h"

namespace dfil {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

core::RunReport JacobiSwitched(int nodes, bool traced = true) {
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 3;
  p.pools = 3;
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.network = core::NetworkKind::kSwitched;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  cfg.trace_enabled = traced;
  return apps::RunJacobiDf(p, cfg).report;
}

apps::QuadratureParams LooseQuadrature() {
  apps::QuadratureParams p;
  p.tolerance = 1e-5;
  p.bag_tasks = 64;
  return p;
}

core::ClusterConfig EightNodes() {
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

core::RunReport QuadratureDf() {
  return apps::RunQuadratureDf(LooseQuadrature(), EightNodes()).report;
}

core::RunReport QuadratureBag() {
  return apps::RunQuadratureCgBag(LooseQuadrature(), EightNodes()).report;
}

// BalancerFaultTest.RehomingSurvivesUniformLossUnderTheOracle's run.
core::RunReport LossyBalanced() {
  core::ClusterConfig cfg = core::skewed::FaultedBalancedConfig();
  cfg.fault_plan.loss_rate = 0.05;
  cfg.fault_plan.seed = 33;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  return core::skewed::RunSkewed(cfg).report;
}

struct PinnedRun {
  const char* name;
  core::RunReport (*run)();
  uint64_t metrics_hash;
  uint64_t flight_hash;  // 0: the flight dump is not pinned
};

const PinnedRun kPinnedRuns[] = {
    {"jacobi_p64", [] { return JacobiSwitched(64); }, 16829914958466805651ull, 0},
    {"jacobi_p13", [] { return JacobiSwitched(13); }, 14264504417258144361ull, 0},
    {"jacobi_p64_untraced", [] { return JacobiSwitched(64, false); }, 16829914958466805651ull, 0},
    {"jacobi_p13_untraced", [] { return JacobiSwitched(13, false); }, 14264504417258144361ull, 0},
    {"quad_df8", QuadratureDf, 2993898773789796172ull, 0},
    {"quad_bag8", QuadratureBag, 8241373154760723570ull, 0},
    {"lossy_balanced4", LossyBalanced, 9905634570205039709ull, 7753899864440578790ull},
};

class ExportPin : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(ExportPin, MetricsAndFlightBytesAreUnchanged) {
  core::RunReport r = GetParam().run();
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  std::ostringstream metrics;
  core::WriteMetricsJson(r, "pin", metrics, {{"git", "pin"}});
  EXPECT_EQ(Fnv1a(metrics.str()), GetParam().metrics_hash);
  if (GetParam().flight_hash != 0) {
    std::ostringstream flight;
    core::WriteFlightJson(r, "pin", {}, flight);
    EXPECT_EQ(Fnv1a(flight.str()), GetParam().flight_hash);
  }
}

void PrintTo(const PinnedRun& run, std::ostream* os) { *os << run.name; }

INSTANTIATE_TEST_SUITE_P(Runs, ExportPin, ::testing::ValuesIn(kPinnedRuns),
                         [](const auto& info) { return std::string(info.param.name); });

// On every node of every pinned run, in SimTime: Figure 10 plus the trailing gap, the
// run/serve/wait partition and the final clock are one quantity.
TEST(WaitStateTest, RunServeWaitSumsToFinalClockExactly) {
  std::array<uint64_t, kNumWaitKinds> events{};
  for (const PinnedRun& pinned : kPinnedRuns) {
    const core::RunReport r = pinned.run();
    ASSERT_TRUE(r.completed) << pinned.name << ": " << r.deadlock_report;
    for (const core::NodeReport& nr : r.nodes) {
      const TimeLedger& ledger = nr.breakdown;
      const SimTime partition = ledger.run_time() + ledger.serve_time() + ledger.wait_time();
      EXPECT_EQ(ledger.Total() + ledger.trailing_gap(), partition)
          << pinned.name << " node " << nr.node;
      EXPECT_EQ(partition, nr.final_clock) << pinned.name << " node " << nr.node;
      EXPECT_GE(nr.final_clock, nr.finished_at) << pinned.name << " node " << nr.node;
      EXPECT_GT(ledger.run_time(), 0) << pinned.name << " node " << nr.node;
      EXPECT_FALSE(ledger.RecentEvents().empty()) << pinned.name << " node " << nr.node;
      for (size_t k = 0; k < kNumWaitKinds; ++k) {
        events[k] += ledger.event_count(static_cast<WaitKind>(k));
      }
    }
  }
  // Between them the runs record every kind the wake, barrier and retransmit paths produce here.
  for (const WaitKind kind : {WaitKind::kPageFault, WaitKind::kBarrier, WaitKind::kCall,
                              WaitKind::kChannel, WaitKind::kJoin, WaitKind::kSweep,
                              WaitKind::kRetransmit}) {
    EXPECT_GT(events[static_cast<size_t>(kind)], 0u) << WaitKindName(kind);
  }
}

// On every node of every pinned run, in SimTime: the pool rows plus other run are the run part.
TEST(PoolProfTest, ExactPartitionAtSimTimeResolution) {
  for (const PinnedRun& pinned : kPinnedRuns) {
    const core::RunReport r = pinned.run();
    ASSERT_TRUE(r.completed) << pinned.name << ": " << r.deadlock_report;
    for (const core::NodeReport& nr : r.nodes) {
      const TimeLedger& ledger = nr.breakdown;
      SimTime pool_run = ledger.other_run();
      for (const TimeLedger::PoolRow& row : ledger.pools()) {
        pool_run += row.run;
      }
      EXPECT_EQ(pool_run, ledger.run_time()) << pinned.name << " node " << nr.node;
    }
  }
}

void ChargedFilament(core::NodeEnv& env, int64_t, int64_t, int64_t) {
  env.ChargeWork(Microseconds(50.0));
}

// A runner that binds a thread to a pool adds the pool's row, so that the charges of the thread
// index it directly. A pool that never charges keeps that row unbooked, and the export skips
// it: the pinned hash is this run's export with no row for the empty pool at all.
TEST(PoolProfTest, RunnerOfAPoolThatNeverChargesLeavesItsRowUnbooked) {
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  core::Cluster cluster(cfg);
  const core::RunReport r = cluster.Run([](core::NodeEnv& env) {
    const core::PoolHandle busy = env.CreatePool();
    env.CreatePool();  // no filament: its runner binds to it and charges nothing
    for (int i = 0; i < 8; ++i) {
      env.CreateFilament(busy, &ChargedFilament, i);
    }
    env.RunPools();
  });
  ASSERT_TRUE(r.completed) << r.deadlock_report;
  for (const core::NodeReport& nr : r.nodes) {
    const std::vector<TimeLedger::PoolRow>& pools = nr.breakdown.pools();
    ASSERT_EQ(pools.size(), 2u) << "node " << nr.node;
    EXPECT_TRUE(pools[0].booked) << "node " << nr.node;
    EXPECT_FALSE(pools[1].booked) << "node " << nr.node;
    EXPECT_EQ(pools[1].run, 0) << "node " << nr.node;
  }
  std::ostringstream metrics;
  core::WriteMetricsJson(r, "pin", metrics, {{"git", "pin"}});
  EXPECT_EQ(Fnv1a(metrics.str()), 15598437040942418893ull);
}

}  // namespace
}  // namespace dfil
