#include "src/apps/fuzz_driver.h"

#include <sstream>
#include <utility>

#include "src/apps/jacobi.h"
#include "src/apps/matmul.h"
#include "src/apps/sor.h"
#include "src/core/dfil.h"
#include "src/core/metrics_io.h"
#include "src/net/packet.h"

namespace dfil::apps {
namespace {

// FNV-1a, so a scenario name perturbs the seed identically in every binary (std::hash is not
// guaranteed stable and the whole point is cross-run replay).
uint64_t HashName(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

uint32_t ServiceNum(net::Service s) { return static_cast<uint32_t>(s); }

// Builds the scenario's fault plan from the config stream. Parameters are drawn per seed so a
// sweep covers a band of intensities, not one fixed operating point.
sim::FaultPlan BuildPlan(const std::string& scenario, Rng& rng, int nodes) {
  sim::FaultPlan plan;
  auto delay_rule = [&](sim::FaultRule r, double lo_ms, double hi_ms) {
    r.delay_min = 0;
    r.delay_max = Milliseconds(lo_ms + (hi_ms - lo_ms) * rng.NextDouble());
    return r;
  };
  if (scenario == "clean") {
    // No faults: the oracle baseline (and a canary for false positives in the oracle itself).
  } else if (scenario == "uniform-loss") {
    plan.loss_rate = 0.05 + 0.25 * rng.NextDouble();
  } else if (scenario == "burst-loss") {
    plan.burst.p_good_to_bad = 0.02 + 0.08 * rng.NextDouble();
    plan.burst.p_bad_to_good = 0.2 + 0.4 * rng.NextDouble();
    plan.burst.loss_good = 0.0;
    plan.burst.loss_bad = 0.8 + 0.2 * rng.NextDouble();
  } else if (scenario == "dup-requests") {
    sim::FaultRule r;
    r.klass = sim::MsgClass::kRequest;
    r.duplicate = 0.3 + 0.5 * rng.NextDouble();
    plan.rules.push_back(delay_rule(r, 0.2, 2.0));
  } else if (scenario == "dup-replies") {
    sim::FaultRule r;
    r.klass = sim::MsgClass::kReply;
    r.duplicate = 0.3 + 0.5 * rng.NextDouble();
    plan.rules.push_back(delay_rule(r, 0.2, 2.0));
  } else if (scenario == "reorder") {
    sim::FaultRule r;
    r.delay = 0.3 + 0.4 * rng.NextDouble();
    plan.rules.push_back(delay_rule(r, 0.5, 3.0));
  } else if (scenario == "page-chaos") {
    // Concentrated abuse of the DSM services: dropped/duplicated/delayed page traffic and
    // duplicated invalidations (the mix that flushes out stale-install and stale-duplicate bugs).
    sim::FaultRule pages;
    pages.type = ServiceNum(net::Service::kPageRequest);
    pages.drop = 0.1 + 0.2 * rng.NextDouble();
    pages.duplicate = 0.2 + 0.3 * rng.NextDouble();
    pages.delay = 0.2;
    plan.rules.push_back(delay_rule(pages, 0.2, 1.5));
    sim::FaultRule invals;
    invals.type = ServiceNum(net::Service::kInvalidate);
    invals.drop = 0.1 + 0.2 * rng.NextDouble();
    invals.duplicate = 0.3 + 0.4 * rng.NextDouble();
    plan.rules.push_back(delay_rule(invals, 0.2, 1.5));
    sim::FaultRule bulk;
    bulk.type = ServiceNum(net::Service::kBulkPageRequest);
    bulk.drop = 0.1 + 0.2 * rng.NextDouble();
    bulk.duplicate = 0.2 + 0.3 * rng.NextDouble();
    plan.rules.push_back(delay_rule(bulk, 0.2, 1.5));
    sim::FaultRule merges;
    merges.type = ServiceNum(net::Service::kDiffMerge);
    merges.drop = 0.1 + 0.2 * rng.NextDouble();
    merges.duplicate = 0.2 + 0.3 * rng.NextDouble();
    plan.rules.push_back(delay_rule(merges, 0.2, 1.5));
  } else if (scenario == "stall") {
    const int count = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < count; ++i) {
      sim::StallSpec s;
      s.node = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
      s.first = Milliseconds(1.0 + static_cast<double>(rng.NextBounded(10)));
      s.period = rng.NextBernoulli(0.5)
                     ? 0
                     : Milliseconds(5.0 + static_cast<double>(rng.NextBounded(20)));
      s.duration = Milliseconds(0.5 + 2.0 * rng.NextDouble());
      plan.stalls.push_back(s);
    }
  } else if (scenario == "mixed") {
    plan.loss_rate = 0.02 + 0.08 * rng.NextDouble();
    sim::FaultRule reorder;
    reorder.delay = 0.2 + 0.3 * rng.NextDouble();
    plan.rules.push_back(delay_rule(reorder, 0.3, 2.0));
    sim::FaultRule dup;
    dup.duplicate = 0.2 + 0.4 * rng.NextDouble();
    plan.rules.push_back(delay_rule(dup, 0.2, 1.0));
    sim::StallSpec s;
    s.node = static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(nodes)));
    s.first = Milliseconds(2.0 + static_cast<double>(rng.NextBounded(8)));
    s.period = Milliseconds(10.0 + static_cast<double>(rng.NextBounded(15)));
    s.duration = Milliseconds(0.5 + 1.5 * rng.NextDouble());
    plan.stalls.push_back(s);
  } else {
    DFIL_CHECK(false) << "unknown fuzz scenario '" << scenario << "'";
  }
  return plan;
}

}  // namespace

const std::vector<std::string>& FuzzScenarios() {
  static const std::vector<std::string> kScenarios = {
      "clean",       "uniform-loss", "burst-loss", "dup-requests", "dup-replies",
      "reorder",     "page-chaos",   "stall",      "mixed",
  };
  return kScenarios;
}

std::string FuzzResult::Summary() const {
  std::ostringstream os;
  os << (ok() ? "ok  " : "FAIL") << " " << scenario << " seed=" << seed << " [" << config_desc
     << "]";
  if (!completed) {
    // The reason's first line: a deadlock report goes on to list every node.
    os << ": did not complete (" << failure.substr(0, failure.find('\n')) << ")";
  }
  if (!output_ok) {
    os << ": output diverges from sequential reference";
  }
  if (!violations.empty()) {
    os << ": " << violations.size() << " oracle violation(s), first: " << violations.front();
  }
  return os.str();
}

FuzzResult RunFuzzCase(const std::string& scenario, uint64_t seed, const FuzzOptions& opts) {
  FuzzResult result;
  result.scenario = scenario;
  result.seed = seed;

  // Everything below draws from this one stream, in a fixed order — the (scenario, seed) pair is
  // the complete description of the case.
  Rng rng(seed ^ HashName(scenario));

  core::ClusterConfig cfg;
  cfg.nodes = 2 + static_cast<int>(rng.NextBounded(3));
  cfg.seed = rng.NextU64() | 1;
  cfg.page_shift = 9 + rng.NextBounded(2);  // 512 B / 1 KB pages: small problems still share pages
  static const dsm::Pcp kPcps[] = {dsm::Pcp::kMigratory, dsm::Pcp::kWriteInvalidate,
                                   dsm::Pcp::kImplicitInvalidate, dsm::Pcp::kDiff};
  cfg.dsm.pcp = kPcps[rng.NextBounded(4)];
  // Never 0: the Mirage hold window is the progress guarantee when pages ping-pong (dsm_node.h),
  // and the fuzzed problems are small enough that strips genuinely share writable pages.
  static const double kMirageMs[] = {0.5, 2.0};
  cfg.dsm.mirage_window = Milliseconds(kMirageMs[rng.NextBounded(2)]);
  if (cfg.dsm.pcp != dsm::Pcp::kMigratory && rng.NextBernoulli(0.5)) {
    cfg.dsm.prefetch_detector = true;  // exercise the bulk-transfer install path under faults
  }
  if (cfg.dsm.pcp == dsm::Pcp::kImplicitInvalidate && rng.NextBernoulli(0.5)) {
    // Per-page-group adaptation: groups flip between implicit-invalidate and diff mid-run, so
    // the sweep also covers the transition machinery (mode races self-correct via reply tags).
    cfg.dsm.adapt_protocols = true;
    cfg.dsm.adapt_to_diff_threshold = 1 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  cfg.barrier = rng.NextBernoulli(0.5) ? core::ClusterConfig::BarrierKind::kTournamentBroadcast
                                       : core::ClusterConfig::BarrierKind::kCentral;
  cfg.reliable_broadcast = true;  // a lost result broadcast would hang the barrier under loss
  cfg.packet.retransmit_timeout = Milliseconds(10.0);
  cfg.packet.retransmit_timeout_max = Milliseconds(40.0);
  cfg.max_virtual_time = Seconds(120.0);
  cfg.trace_enabled = opts.capture_trace;
  cfg.fault_plan = BuildPlan(scenario, rng, cfg.nodes);
  cfg.fault_plan.seed = rng.NextU64() | 1;
  // Coalescing on/off dimension (DESIGN.md §11), drawn from a derived stream rather than `rng` so
  // adding it did not reshuffle the config draws of the pre-existing (scenario, seed) corpus.
  // With it on, every fault scenario also hits packed datagrams (dropping one is correlated loss
  // of every frame inside), the mutual-peer hold, and the elided-ack sync-point batching.
  Rng coalesce_rng(seed ^ HashName(scenario) ^ HashName("coalesce"));
  if (coalesce_rng.NextBernoulli(0.5)) {
    cfg.coalesce.enabled = true;
    // Scale the estimator floor to the fuzz's shortened timeouts (rto_min defaults to the
    // production 100ms fixed timeout, which would pin every estimated RTO at the 40ms max here).
    cfg.packet.rto_min = cfg.packet.retransmit_timeout;
  }
  // Load-balancer dimension (DESIGN.md §13), likewise drawn from its own derived stream. Knobs
  // are drawn aggressive (low trigger, short patience/cooldown) so the tiny fuzz problems really
  // do emit plans, migrate pools, and re-home pages while every fault scenario is active —
  // the output must stay bitwise equal to the sequential reference regardless.
  Rng balance_rng(seed ^ HashName(scenario) ^ HashName("balance"));
  if (balance_rng.NextBernoulli(0.35)) {
    cfg.balancer.enabled = true;
    cfg.balancer.balance_trigger_ratio = 0.05 + 0.25 * balance_rng.NextDouble();
    cfg.balancer.balance_patience_epochs = 1 + static_cast<int>(balance_rng.NextBounded(3));
    cfg.balancer.balance_cooldown_epochs = 1 + static_cast<int>(balance_rng.NextBounded(4));
    cfg.balancer.balance_move_fraction = 0.25 + 0.5 * balance_rng.NextDouble();
    cfg.balancer.balance_rehome_pages = balance_rng.NextBernoulli(0.75);
  }
  if (opts.max_virtual_time > 0) {
    cfg.max_virtual_time = opts.max_virtual_time;
  }
  // Every generated config must pass the same validation Cluster enforces at construction; a
  // draw that can produce an invalid combination is a bug in this driver, not in the run.
  DFIL_CHECK(cfg.Validate().empty())
      << "fuzz driver drew an invalid config: " << cfg.Validate().front();

  dsm::CoherenceOracle oracle;
  cfg.coherence_oracle = &oracle;

  const LogLevel prior_level = DfilLogLevel();
  if (opts.log_packets) {
    DfilSetLogLevel(LogLevel::kDebug);
  }

  const int app = static_cast<int>(rng.NextBounded(3));
  core::ClusterConfig seq_cfg;  // sequential reference: one node, no faults, no oracle
  seq_cfg.nodes = 1;
  seq_cfg.page_shift = cfg.page_shift;
  AppRun faulted;
  AppRun reference;
  std::ostringstream desc;
  switch (app) {
    case 0: {
      JacobiParams p;
      p.n = 16 + 4 * static_cast<int>(rng.NextBounded(3));
      p.iterations = 3 + static_cast<int>(rng.NextBounded(3));
      p.pools = rng.NextBernoulli(0.25) ? 1 : 3;
      desc << "jacobi n=" << p.n << " it=" << p.iterations << " pools=" << p.pools;
      faulted = RunJacobiDf(p, cfg);
      reference = RunJacobiSeq(p, seq_cfg);
      break;
    }
    case 1: {
      SorParams p;
      p.n = 12 + 4 * static_cast<int>(rng.NextBounded(2));
      p.iterations = 2 + static_cast<int>(rng.NextBounded(3));
      desc << "sor n=" << p.n << " it=" << p.iterations;
      faulted = RunSorDf(p, cfg);
      reference = RunSorSeq(p, seq_cfg);
      break;
    }
    default: {
      MatmulParams p;
      p.n = 12 + 4 * static_cast<int>(rng.NextBounded(2));
      p.pools_per_node = 2 + static_cast<int>(rng.NextBounded(3));
      desc << "matmul n=" << p.n;
      faulted = RunMatmulDf(p, cfg);
      reference = RunMatmulSeq(p, seq_cfg);
      break;
    }
  }
  if (opts.log_packets) {
    DfilSetLogLevel(prior_level);
  }

  desc << " pcp=" << dsm::PcpName(cfg.dsm.pcp) << " nodes=" << cfg.nodes
       << " ps=" << cfg.page_shift << (cfg.dsm.prefetch_detector ? " prefetch" : "")
       << (cfg.dsm.adapt_protocols ? " adapt" : "")
       << (cfg.coalesce.enabled ? " coalesce" : "") << (cfg.balancer.enabled ? " balance" : "")
       << (cfg.barrier == core::ClusterConfig::BarrierKind::kCentral ? " central" : " tournament");
  result.config_desc = desc.str();

  result.completed = faulted.report.completed;
  result.failure = faulted.report.deadlock_report;
  // Bitwise equality: every app's DF variant performs the identical per-element arithmetic as the
  // sequential program, so any divergence is a coherence bug, not floating-point noise.
  result.output_ok = result.completed && faulted.output == reference.output;
  result.violations = oracle.violations();
  result.oracle_checks = oracle.checks_run();
  result.quiescent_points = oracle.quiescent_points();
  result.makespan = faulted.report.makespan;
  result.net = faulted.report.net;
  result.trace = faulted.report.trace;
  result.flight = faulted.report.flight;
  if (opts.flight_dump_on_failure && !result.ok()) {
    result.flight_path = core::WriteFlightFile(
        faulted.report, scenario + "_seed" + std::to_string(seed), result.violations);
  }
  for (const core::NodeReport& nr : faulted.report.nodes) {
    result.packet += nr.packet;
    result.dsm += nr.dsm;
  }
  return result;
}

}  // namespace dfil::apps
