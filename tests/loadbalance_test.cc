// Tests for epoch-driven load balancing (DESIGN.md §13): the balancer-off invariance contract
// (disabled runs are byte-identical, knobs and all), schedule determinism of the balanced runs
// (replay-stable, unperturbed by tracing), page re-homing correctness under message loss and
// duplication with the coherence oracle attached, and ClusterConfig::Validate's accept/reject
// rules for the balancer knob block.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/config.h"
#include "src/dsm/coherence_oracle.h"
#include "src/net/packet.h"
#include "src/sim/fault_plan.h"
#include "tests/skewed_workload.h"

namespace dfil::core {
namespace {

using namespace skewed;

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

// --- Balancer-off invariance -----------------------------------------------------------------

TEST(BalancerOffTest, DisabledRunsReplayByteIdentically) {
  ClusterConfig cfg = BaseConfig();
  cfg.trace_enabled = true;
  const LbRun a = RunSkewed(cfg);
  const LbRun b = RunSkewed(cfg);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-identical schedule, not just equal totals
}

TEST(BalancerOffTest, KnobValuesAreInertWhileDisabled) {
  // The whole knob block must be dead weight while enabled=false: a config that carries wild
  // balancer settings (but never flips the switch) produces the byte-identical trace of the
  // default config, with zero plans, migrations, or re-homed pages.
  ClusterConfig plain = BaseConfig();
  plain.trace_enabled = true;
  ClusterConfig wild = plain;
  wild.balancer.balance_trigger_ratio = 0.01;
  wild.balancer.balance_patience_epochs = 1;
  wild.balancer.balance_cooldown_epochs = 1;
  wild.balancer.balance_move_fraction = 1.0;
  wild.balancer.balance_rehome_pages = false;
  const LbRun a = RunSkewed(plain);
  const LbRun b = RunSkewed(wild);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(SumCounter(b.report, "core.rebalance_plans"), 0u);
  EXPECT_EQ(SumCounter(b.report, "core.filaments_migrated"), 0u);
  EXPECT_EQ(SumPagesRehomed(b.report), 0u);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
}

// --- Migration determinism -------------------------------------------------------------------

TEST(BalancerOnTest, BalancedRunsReplayIdentically) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  const LbRun a = RunSkewed(cfg);
  const LbRun b = RunSkewed(cfg);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(b.validation_error, 0.0);
  EXPECT_GE(SumCounter(a.report, "core.rebalance_plans"), 1u)
      << "the skewed workload never triggered a plan; the remaining equalities are vacuous";
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
  EXPECT_EQ(SumCounter(a.report, "core.rebalance_plans"),
            SumCounter(b.report, "core.rebalance_plans"));
  EXPECT_EQ(SumCounter(a.report, "core.filaments_migrated"),
            SumCounter(b.report, "core.filaments_migrated"));
  EXPECT_EQ(SumPagesRehomed(a.report), SumPagesRehomed(b.report));
}

TEST(BalancerOnTest, TracingDoesNotPerturbTheBalancedSchedule) {
  // The rebalance trace instants are observation only: a traced balanced run and an untraced
  // one make identical decisions and finish at the identical virtual instant.
  ClusterConfig untraced = BaseConfig();
  EnableBalancer(untraced);
  ClusterConfig traced = untraced;
  traced.trace_enabled = true;
  const LbRun a = RunSkewed(untraced);
  const LbRun b = RunSkewed(traced);
  ASSERT_TRUE(a.report.completed) << a.report.deadlock_report;
  ASSERT_TRUE(b.report.completed) << b.report.deadlock_report;
  EXPECT_EQ(a.validation_error, 0.0);
  EXPECT_EQ(b.validation_error, 0.0);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.net.messages_sent, b.report.net.messages_sent);
  EXPECT_EQ(SumCounter(a.report, "core.rebalance_plans"),
            SumCounter(b.report, "core.rebalance_plans"));
  EXPECT_EQ(SumCounter(a.report, "core.filaments_migrated"),
            SumCounter(b.report, "core.filaments_migrated"));
  EXPECT_NE(b.trace_json.find("rebalance plan"), std::string::npos)
      << "a balanced traced run must record its plan instants";
}

TEST(BalancerOnTest, MigrationShedsLoadOffTheSlowNode) {
  ClusterConfig off = BaseConfig();
  ClusterConfig on = BaseConfig();
  EnableBalancer(on);
  const LbRun stat = RunSkewed(off);
  const LbRun bal = RunSkewed(on);
  ASSERT_TRUE(stat.report.completed) << stat.report.deadlock_report;
  ASSERT_TRUE(bal.report.completed) << bal.report.deadlock_report;
  EXPECT_EQ(stat.validation_error, 0.0);
  EXPECT_EQ(bal.validation_error, 0.0);
  EXPECT_GE(SumCounter(bal.report, "core.rebalance_plans"), 1u);
  EXPECT_GE(SumCounter(bal.report, "core.filaments_migrated"),
            static_cast<uint64_t>(kFilamentsPerPool));
  EXPECT_GE(SumPagesRehomed(bal.report), 1u);
  EXPECT_LT(bal.report.makespan, stat.report.makespan)
      << "migrating pools off a 2x-slow node must shorten the run";
}

// --- Page re-homing under faults, checked by the coherence oracle ----------------------------

TEST(BalancerFaultTest, RehomingSurvivesUniformLossUnderTheOracle) {
  ClusterConfig cfg = FaultedBalancedConfig();
  cfg.fault_plan.loss_rate = 0.05;  // every class: migrates, re-homes, acks, page traffic
  cfg.fault_plan.seed = 33;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  const LbRun r = RunSkewed(cfg);
  ASSERT_TRUE(r.report.completed) << r.report.deadlock_report;
  EXPECT_EQ(r.validation_error, 0.0) << "a lost migrate or re-home corrupted the grid";
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GE(SumCounter(r.report, "core.filaments_migrated"), 1u);
  EXPECT_GE(SumPagesRehomed(r.report), 1u);
}

TEST(BalancerFaultTest, DuplicatedMigratesAndRehomesApplyExactlyOnce) {
  // Duplicate every kFilamentMigrate and kRehomePages datagram with enough delay that the copy
  // lands an epoch later: the per-epoch idempotence guard must drop it, or filaments run twice
  // (validation catches it) and ownership forks (the oracle catches it).
  ClusterConfig cfg = FaultedBalancedConfig();
  for (const net::Service svc : {net::Service::kFilamentMigrate, net::Service::kRehomePages}) {
    sim::FaultRule dup;
    dup.type = static_cast<uint32_t>(svc);
    dup.duplicate = 1.0;
    dup.delay_min = Milliseconds(1.0);
    dup.delay_max = Milliseconds(30.0);
    cfg.fault_plan.rules.push_back(dup);
  }
  cfg.fault_plan.seed = 91;
  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;
  const LbRun r = RunSkewed(cfg);
  ASSERT_TRUE(r.report.completed) << r.report.deadlock_report;
  EXPECT_EQ(r.validation_error, 0.0) << "a duplicated migrate re-ran filaments";
  EXPECT_TRUE(oracle.violations().empty()) << oracle.violations().front();
  EXPECT_GE(SumCounter(r.report, "core.filaments_migrated"), 1u);
  EXPECT_GE(SumPagesRehomed(r.report), 1u);
}

// --- ClusterConfig::Validate on the balancer block -------------------------------------------

bool AnyErrorMentions(const std::vector<std::string>& errors, const std::string& needle) {
  for (const std::string& e : errors) {
    if (e.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(BalancerValidateTest, AcceptsEnabledBalancerOnChampionBarriers) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.barrier = ClusterConfig::BarrierKind::kCentral;  // central also has a champion
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(BalancerValidateTest, DisabledBalancerSkipsKnobChecks) {
  // Out-of-range knobs in a disabled block are inert (KnobValuesAreInertWhileDisabled proves
  // the runtime side); Validate must not reject a config whose dead knobs are nonsense.
  ClusterConfig cfg = BaseConfig();
  cfg.balancer.enabled = false;
  cfg.balancer.balance_trigger_ratio = -3.0;
  cfg.balancer.balance_move_fraction = 42.0;
  cfg.balancer.balance_patience_epochs = 0;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(BalancerValidateTest, RejectsDisseminationBarrier) {
  ClusterConfig cfg = BaseConfig();
  EnableBalancer(cfg);
  cfg.barrier = ClusterConfig::BarrierKind::kDissemination;
  EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "champion"))
      << "dissemination has no champion to aggregate the samples";
}

TEST(BalancerValidateTest, RejectsOutOfRangeKnobs) {
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_trigger_ratio = 0.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_trigger_ratio"));
    cfg.balancer.balance_trigger_ratio = 1.5;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_trigger_ratio"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_patience_epochs = 0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_patience_epochs"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_cooldown_epochs = 0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_cooldown_epochs"));
  }
  {
    ClusterConfig cfg = BaseConfig();
    EnableBalancer(cfg);
    cfg.balancer.balance_move_fraction = 0.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_move_fraction"));
    cfg.balancer.balance_move_fraction = 2.0;
    EXPECT_TRUE(AnyErrorMentions(cfg.Validate(), "balance_move_fraction"));
  }
}

}  // namespace
}  // namespace dfil::core
