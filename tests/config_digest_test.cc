// Pins ClusterConfig::DigestHex() for the default config and for configs that set the kept knobs
// away from their defaults. The digest's key names and order are a contract: every metrics export
// stamps it as "fingerprint.config", and `dfil diff` compares runs by it. Removing a knob from
// ClusterConfig must leave its key in the digest at its old constant, so no value here moves.
#include <gtest/gtest.h>

#include <string>

#include "src/core/config.h"

namespace dfil::core {
namespace {

ClusterConfig Default() { return ClusterConfig{}; }

ClusterConfig Coalescing() {
  ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.seed = 11;
  cfg.coalesce.enabled = true;
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.packet.rto_min = Milliseconds(10.0);
  return cfg;
}

ClusterConfig DiffAdaptPrefetch() {
  ClusterConfig cfg;
  cfg.network = NetworkKind::kSwitched;
  cfg.page_shift = 10;
  cfg.dsm.pcp = dsm::Pcp::kDiff;
  cfg.dsm.mirage_window = Milliseconds(5.0);
  cfg.dsm.prefetch_detector = true;
  cfg.dsm.prefetch_hints = true;
  cfg.dsm.adapt_protocols = true;
  cfg.dsm.adapt_to_diff_threshold = 5;
  cfg.dsm.adapt_calm_epochs = 4;
  return cfg;
}

ClusterConfig ForkJoinBalancer(ClusterConfig::BarrierKind barrier) {
  ClusterConfig cfg;
  cfg.nodes = 13;
  cfg.wake_at_front = true;
  cfg.barrier = barrier;
  cfg.max_virtual_time = Seconds(500.0);
  cfg.fj.steal_enabled = false;
  cfg.fj.prune_threshold = 7;
  // The balancer needs a champion barrier, so Validate rejects it under dissemination.
  cfg.balancer.enabled = barrier != ClusterConfig::BarrierKind::kDissemination;
  cfg.balancer.balance_trigger_ratio = 0.3;
  cfg.balancer.balance_patience_epochs = 2;
  cfg.balancer.balance_cooldown_epochs = 5;
  cfg.balancer.balance_move_fraction = 0.5;
  cfg.balancer.balance_rehome_pages = false;
  return cfg;
}

ClusterConfig FjTournament() {
  return ForkJoinBalancer(ClusterConfig::BarrierKind::kTournamentBroadcast);
}
ClusterConfig FjDissemination() {
  return ForkJoinBalancer(ClusterConfig::BarrierKind::kDissemination);
}
ClusterConfig FjCentral() { return ForkJoinBalancer(ClusterConfig::BarrierKind::kCentral); }

ClusterConfig FaultsWithRulesAndStalls() {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 99;
  cfg.reliable_broadcast = true;
  cfg.costs.msg_send_overhead = Microseconds(300.0);
  cfg.fault_plan.loss_rate = 0.02;
  cfg.fault_plan.burst.p_good_to_bad = 0.01;
  sim::FaultRule rule;
  rule.src = 1;
  rule.dst = 2;
  rule.type = 3;
  rule.klass = sim::MsgClass::kReply;
  rule.seq_from = 2;
  rule.seq_to = 9;
  rule.drop = 0.5;
  rule.duplicate = 0.25;
  rule.delay = 0.125;
  rule.delay_min = Milliseconds(1.0);
  rule.delay_max = Milliseconds(30.0);
  cfg.fault_plan.rules.push_back(rule);
  cfg.fault_plan.rules.push_back(sim::FaultRule{});
  cfg.fault_plan.stalls.push_back(sim::StallSpec{3, Milliseconds(10.0), 0, Milliseconds(5.0)});
  return cfg;
}

struct DigestPin {
  const char* name;
  ClusterConfig (*config)();
  const char* digest;
};

// Recorded before any knob was removed from ClusterConfig. "coalescing" once also set the
// retransmission limit and the reply-buffering ack mode; since neither can be set any more, its
// value is the one the older code gave this config without them.
const DigestPin kDigestPins[] = {
    {"default", Default, "3ac26241552925ac"},
    {"coalescing", Coalescing, "97c88895db9cf5af"},
    {"diff_adapt_prefetch", DiffAdaptPrefetch, "de4d709d9fe50e11"},
    {"fj_balancer_tournament", FjTournament, "a4dd728725126685"},
    {"fj_balancer_dissemination", FjDissemination, "86f09d9f619b2f27"},
    {"fj_balancer_central", FjCentral, "52dcfa0627259dfb"},
    {"faults_rules_stalls", FaultsWithRulesAndStalls, "40dc7c4ff41350ef"},
};

class ConfigDigestTest : public ::testing::TestWithParam<DigestPin> {};

TEST_P(ConfigDigestTest, DigestIsUnchanged) {
  const ClusterConfig cfg = GetParam().config();
  ASSERT_TRUE(cfg.Validate().empty()) << cfg.Validate().front();
  EXPECT_EQ(cfg.DigestHex(), GetParam().digest);
}

void PrintTo(const DigestPin& pin, std::ostream* os) { *os << pin.name; }

INSTANTIATE_TEST_SUITE_P(Configs, ConfigDigestTest, ::testing::ValuesIn(kDigestPins),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace dfil::core
