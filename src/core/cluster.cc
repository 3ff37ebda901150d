#include "src/core/cluster.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/dsm/coherence_oracle.h"

namespace dfil::core {
namespace {

const char* BarrierName(ClusterConfig::BarrierKind k) {
  switch (k) {
    case ClusterConfig::BarrierKind::kTournamentBroadcast:
      return "tournament";
    case ClusterConfig::BarrierKind::kDissemination:
      return "dissemination";
    case ClusterConfig::BarrierKind::kCentral:
      return "central";
  }
  return "?";
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config), layout_(config.page_shift) {
  const std::vector<std::string> errors = config_.Validate();
  for (const std::string& error : errors) {
    DFIL_LOG(kError, "core") << "invalid ClusterConfig: " << error;
  }
  DFIL_CHECK(errors.empty()) << "invalid ClusterConfig (" << errors.size() << " error"
                             << (errors.size() == 1 ? "" : "s") << "; first: " << errors.front()
                             << ")";
}

Cluster::~Cluster() = default;

RunReport Cluster::Run(const NodeMain& node_main) {
  DFIL_CHECK(!ran_) << "a Cluster runs exactly once; construct a new one per experiment";
  ran_ = true;
  if (!layout_.sealed()) {
    layout_.Seal(config_.nodes);
  }

  std::unique_ptr<sim::NetworkModel> net;
  if (config_.network == NetworkKind::kSharedEthernet) {
    net = std::make_unique<sim::SharedEthernet>(config_.costs);
  } else {
    net = std::make_unique<sim::SwitchedNetwork>(config_.costs, config_.nodes);
  }
  machine_ = std::make_unique<sim::Machine>(std::move(net), config_.costs,
                                            config_.EffectiveFaultPlan());

  std::shared_ptr<TraceRecorder> trace;
  if (config_.trace_enabled) {
    trace = std::make_shared<TraceRecorder>();
  }
  machine_->SetTrace(trace.get());
  nodes_.clear();
  for (NodeId n = 0; n < config_.nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeRuntime>(n, config_, machine_.get(), &layout_));
    nodes_.back()->SetTrace(trace.get());
    machine_->AddHost(nodes_.back().get());
  }
  for (auto& node : nodes_) {
    NodeRuntime* rt = node.get();
    rt->SetMain([rt, &node_main] { node_main(rt->env()); });
  }

  FlightSnapshot flight;
  if (config_.coherence_oracle != nullptr) {
    config_.coherence_oracle->on_first_violation = [this, &flight] {
      flight.at_violation = true;
      flight.node_events.clear();
      for (auto& node : nodes_) {
        flight.node_events.push_back(node->ledger().RecentEvents());
      }
      flight.injections = machine_->RecentInjections();
    };
  }

  sim::RunResult sim_result = machine_->Run(config_.max_virtual_time);

  if (config_.coherence_oracle != nullptr) {
    config_.coherence_oracle->on_first_violation = nullptr;
  }
  for (auto& node : nodes_) {
    node->FinalizeLedger();
  }
  if (!flight.at_violation) {
    for (auto& node : nodes_) {
      flight.node_events.push_back(node->ledger().RecentEvents());
    }
    flight.injections = machine_->RecentInjections();
  }

  RunReport report;
  report.completed = sim_result.completed;
  report.deadlocked = sim_result.deadlocked;
  report.deadlock_report = sim_result.deadlock_report;
  report.makespan = sim_result.makespan;
  report.events = sim_result.events_dispatched;
  report.net = machine_->net_stats();
  report.medium_busy = machine_->network().MediumBusyTime();
  report.pcp = dsm::PcpName(config_.dsm.pcp);
  report.num_nodes = config_.nodes;
  report.trace = trace;
  report.flight = std::move(flight);
  report.provenance["nodes"] = std::to_string(config_.nodes);
  report.provenance["pcp"] = report.pcp;
  report.provenance["page_shift"] = std::to_string(config_.page_shift);
  report.provenance["seed"] = std::to_string(config_.seed);
  report.provenance["network"] =
      config_.network == NetworkKind::kSharedEthernet ? "shared-ethernet" : "switched";
  report.provenance["barrier"] = BarrierName(config_.barrier);
  report.provenance["coalesce"] = config_.coalesce.enabled ? "on" : "off";
  report.provenance["balancer"] = config_.balancer.enabled ? "on" : "off";
  report.provenance["loss_rate"] = std::to_string(config_.EffectiveFaultPlan().loss_rate);
  // Run-fingerprint fields (DESIGN.md §14): the canonical config digest makes two runs provably
  // comparable (equal = same schedule-affecting configuration) and the build SHA pins the code.
  report.provenance["config_digest"] = config_.DigestHex();
#ifdef DFIL_GIT_SHA
  report.provenance["git"] = DFIL_GIT_SHA;
#else
  report.provenance["git"] = "unknown";
#endif
  for (auto& node : nodes_) {
    NodeReport nr;
    nr.node = node->id();
    nr.finished_at = node->main_finished_at();
    nr.final_clock = node->Clock();
    nr.breakdown = node->ledger();
    nr.filaments = node->fil_stats();
    nr.dsm = node->dsm().stats();
    nr.packet = node->packet().stats();
    nr.metrics = node->metrics();
    nr.sent_by_service = node->packet().sent_by_service();
    nr.page_heat = node->dsm().fault_heat();
    report.nodes.push_back(nr);
  }
  return report;
}

}  // namespace dfil::core
