#include "src/core/metrics_io.h"

#include <cstdio>
#include <fstream>
#include <map>

#include "src/net/packet.h"

namespace dfil::core {
namespace {

// Every stats-struct counter becomes a "<layer>.<name>" counter in one per-node registry, so the
// JSON (and everything downstream: dfil, the CI gate) sees a single uniform namespace.
MetricsRegistry FlattenNode(const NodeReport& nr) {
  MetricsRegistry m = nr.metrics;  // live histograms + runtime counters first
  const auto set_under = [&m](const char* layer) {
    return [&m, layer](const char* name, uint64_t value) {
      m.Set(std::string(layer).append(name), value);
    };
  };
  nr.dsm.ForEach(set_under("dsm."));
  m.Set("dsm.page_request_messages", nr.dsm.page_request_messages());
  nr.packet.ForEach(set_under("net."));
  for (const auto& [svc, count] : nr.sent_by_service) {
    m.Set(std::string("net.sent.") + net::ServiceName(static_cast<net::Service>(svc)), count);
  }
  nr.filaments.ForEach(set_under("fil."));
  return m;
}

// Cluster totals: per-node counters summed, plus the network-wide MessageStats and the two gate
// counters the CI workflow tracks.
std::map<std::string, uint64_t> ClusterCounters(const RunReport& report) {
  std::map<std::string, uint64_t> totals;
  for (const NodeReport& nr : report.nodes) {
    const MetricsRegistry flat = FlattenNode(nr);  // bound: counters() refers into it
    for (const auto& [name, value] : flat.counters()) {
      totals[name] += value;
    }
    uint64_t& barrier_messages = totals["net.barrier_messages"];
    for (const net::Service svc : {net::Service::kReduceUp, net::Service::kReduceDone}) {
      const auto it = nr.sent_by_service.find(static_cast<uint16_t>(svc));
      barrier_messages += it != nr.sent_by_service.end() ? it->second : 0;
    }
  }
  report.net.ForEach([&totals](const char* name, uint64_t value) {
    totals[std::string("net.").append(name)] = value;
  });
  return totals;
}

// One row of a pool-ledger table, in the per-node "pools" arrays and in "pools_by_fn". Serve time
// is booked only in the residual row: handlers serve the cluster, not any one pool.
struct PoolRowTotals {
  SimTime run = 0;
  SimTime blocked = 0;
  SimTime serve = 0;
  uint64_t faults = 0;
  uint64_t filaments_run = 0;
  uint64_t migrated_in = 0;
};

// Writes the row's fields and its closing brace, after the keys the caller already wrote.
void WritePoolRow(std::ostream& os, const PoolRowTotals& r) {
  os << ", \"run_us\": " << ToMicroseconds(r.run)
     << ", \"blocked_us\": " << ToMicroseconds(r.blocked)
     << ", \"serve_us\": " << ToMicroseconds(r.serve) << ", \"faults\": " << r.faults
     << ", \"filaments_run\": " << r.filaments_run << ", \"migrated_in\": " << r.migrated_in
     << "}";
}

// Cluster-wide per-filament-function rollup of the per-pool ledgers. Key is the deterministic fn
// id (first-registration order, identical across nodes for SPMD programs); fn -1 is the residual:
// non-pool run time plus all serve time.
std::map<int, PoolRowTotals> RollupByFn(const RunReport& report) {
  std::map<int, PoolRowTotals> by_fn;
  for (const NodeReport& nr : report.nodes) {
    for (const TimeLedger::PoolRow& lg : nr.breakdown.pools()) {
      if (!lg.booked) {
        continue;
      }
      PoolRowTotals& r = by_fn[lg.fn];
      r.run += lg.run;
      r.blocked += lg.blocked;
      r.faults += lg.faults;
      r.filaments_run += lg.filaments_run;
      r.migrated_in += lg.migrated_in;
    }
    PoolRowTotals& other = by_fn[-1];
    other.run += nr.breakdown.other_run();
    other.serve += nr.breakdown.serve_time();
  }
  return by_fn;
}

std::string ProvenanceOr(const std::map<std::string, std::string>& provenance,
                         const std::string& key, const std::string& fallback) {
  const auto it = provenance.find(key);
  return it != provenance.end() ? it->second : fallback;
}

}  // namespace

void WriteMetricsJson(const RunReport& report, const std::string& label, std::ostream& os,
                      const std::map<std::string, std::string>& extra_provenance) {
  std::map<std::string, std::string> provenance = report.provenance;
  for (const auto& [key, value] : extra_provenance) {
    provenance[key] = value;
  }
  os << "{\n  \"schema\": \"dfil-metrics-v2\",\n  \"label\": \"" << label << "\",\n  \"pcp\": \""
     << report.pcp << "\",\n  \"nodes\": " << report.num_nodes
     << ",\n  \"completed\": " << (report.completed ? 1 : 0)
     << ",\n  \"makespan_us\": " << ToMicroseconds(report.makespan)
     // Run fingerprint: the four fields `dfil diff` checks before comparing two runs. "config" is
     // the canonical digest of every schedule-affecting ClusterConfig knob (config.cc); "app" is
     // the program identity (bench-supplied; distinct labels like jacobi_wi8/jacobi_ii8 share it).
     << ",\n  \"fingerprint\": {\"config\": \"" << ProvenanceOr(provenance, "config_digest", "")
     << "\", \"git\": \"" << ProvenanceOr(provenance, "git", "unknown") << "\", \"seed\": \""
     << ProvenanceOr(provenance, "seed", "") << "\", \"app\": \""
     << ProvenanceOr(provenance, "app", label) << "\"}"
     << ",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": \"" << value << "\"";
    first = false;
  }
  os << "\n  },\n  \"cluster\": {\n"
     << "    \"counters\": {";
  first = true;
  for (const auto& [name, value] : ClusterCounters(report)) {
    os << (first ? "\n" : ",\n") << "      \"" << name << "\": " << value;
    first = false;
  }
  os << "\n    },\n    \"pools_by_fn\": [";
  first = true;
  for (const auto& [fn, r] : RollupByFn(report)) {
    os << (first ? "\n" : ",\n") << "      {\"fn\": " << fn;
    WritePoolRow(os, r);
    first = false;
  }
  os << (first ? "]" : "\n    ]");
  os << "\n  },\n  \"per_node\": [";
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeReport& nr = report.nodes[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\n      \"node\": " << nr.node
       << ",\n      \"finished_at_us\": " << ToMicroseconds(nr.finished_at)
       << ",\n      \"final_clock_us\": " << ToMicroseconds(nr.final_clock)
       << ",\n      \"time_us\": {";
    for (size_t c = 0; c < kNumTimeCategories; ++c) {
      const auto cat = static_cast<TimeCategory>(c);
      os << (c == 0 ? "" : ", ") << "\"" << TimeCategoryName(cat)
         << "\": " << ToMicroseconds(nr.breakdown.Get(cat));
    }
    os << "},\n      \"run_us\": " << ToMicroseconds(nr.breakdown.run_time())
       << ",\n      \"serve_us\": " << ToMicroseconds(nr.breakdown.serve_time())
       << ",\n      \"wait_us\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << ToMicroseconds(nr.breakdown.wait_time(kind));
    }
    os << "},\n      \"wait_events\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << nr.breakdown.event_count(kind);
    }
    os << "},\n      \"pools\": [";
    const std::vector<TimeLedger::PoolRow>& pools = nr.breakdown.pools();
    for (size_t pool = 0; pool < pools.size(); ++pool) {
      const TimeLedger::PoolRow& lg = pools[pool];
      if (!lg.booked) {
        continue;
      }
      os << "\n        {\"pool\": " << pool << ", \"fn\": " << lg.fn;
      WritePoolRow(os, {lg.run, lg.blocked, 0, lg.faults, lg.filaments_run, lg.migrated_in});
      os << ",";
    }
    // Residual row: run time outside any pool (main/sync/balancer code) plus all handler serve
    // time. With it, sum(run_us)+sum(serve_us) over rows equals this node's run_us+serve_us.
    os << "\n        {\"pool\": -1, \"fn\": -1";
    WritePoolRow(os, {.run = nr.breakdown.other_run(), .serve = nr.breakdown.serve_time()});
    os << "\n      ]";
    os << ",\n      \"epochs\": [";
    const auto& epochs = nr.metrics.epochs();
    for (size_t e = 0; e < epochs.size(); ++e) {
      os << (e == 0 ? "\n        {" : ",\n        {");
      bool first_col = true;
      for (const auto& [name, value] : epochs[e]) {
        os << (first_col ? "" : ", ") << "\"" << name << "\": " << value;
        first_col = false;
      }
      os << "}";
    }
    os << (epochs.empty() ? "]" : "\n      ]") << ",\n      \"metrics\": ";
    FlattenNode(nr).WriteJson(os, "      ");
    os << ",\n      \"page_heat\": [";
    bool first_page = true;
    for (size_t p = 0; p < nr.page_heat.size(); ++p) {
      if (nr.page_heat[p] == 0) {
        continue;
      }
      os << (first_page ? "" : ",") << "[" << p << "," << nr.page_heat[p] << "]";
      first_page = false;
    }
    os << "]\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string WriteMetricsFile(const RunReport& report, const std::string& label,
                             const std::map<std::string, std::string>& extra_provenance) {
  const std::string name = "METRICS_" + label + ".json";
  std::ofstream out(name);
  WriteMetricsJson(report, label, out, extra_provenance);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

namespace {

// Minimal JSON string escaping for oracle violation text (which embeds page/value dumps).
void WriteEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      os << buf;
    } else {
      os << c;
    }
  }
}

const char* MsgClassLabel(sim::MsgClass klass) {
  switch (klass) {
    case sim::MsgClass::kRequest:
      return "request";
    case sim::MsgClass::kReply:
      return "reply";
    case sim::MsgClass::kRaw:
      return "raw";
    case sim::MsgClass::kPacked:
      return "packed";
    case sim::MsgClass::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace

void WriteFlightJson(const RunReport& report, const std::string& label,
                     const std::vector<std::string>& violations, std::ostream& os) {
  const FlightSnapshot& flight = report.flight;
  os << "{\n  \"schema\": \"dfil-flight-v1\",\n  \"label\": \"";
  WriteEscaped(os, label);
  os << "\",\n  \"at_violation\": " << (flight.at_violation ? 1 : 0) << ",\n  \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    os << (i == 0 ? "\n    \"" : ",\n    \"");
    WriteEscaped(os, violations[i]);
    os << "\"";
  }
  os << (violations.empty() ? "]" : "\n  ]") << ",\n  \"nodes\": [";
  for (size_t n = 0; n < flight.node_events.size(); ++n) {
    os << (n == 0 ? "\n" : ",\n") << "    {\"node\": " << n << ", \"events\": [";
    const auto& events = flight.node_events[n];
    for (size_t i = 0; i < events.size(); ++i) {
      const WaitEvent& e = events[i];
      os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \"" << WaitKindName(e.kind)
         << "\", \"detail\": " << e.detail << ", \"start_us\": " << ToMicroseconds(e.start)
         << ", \"end_us\": " << ToMicroseconds(e.end) << "}";
    }
    os << (events.empty() ? "]}" : "\n    ]}");
  }
  os << (flight.node_events.empty() ? "]" : "\n  ]") << ",\n  \"injections\": [";
  for (size_t i = 0; i < flight.injections.size(); ++i) {
    const sim::Machine::InjectionNote& note = flight.injections[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"what\": \"" << note.what << "\", \"class\": \""
       << MsgClassLabel(note.klass) << "\", \"type\": " << note.type << ", \"src\": " << note.src
       << ", \"dst\": " << note.dst << ", \"at_us\": " << ToMicroseconds(note.at) << "}";
  }
  os << (flight.injections.empty() ? "]" : "\n  ]") << "\n}\n";
}

std::string WriteFlightFile(const RunReport& report, const std::string& label,
                            const std::vector<std::string>& violations) {
  const std::string name = "FLIGHT_" + label + ".json";
  std::ofstream out(name);
  WriteFlightJson(report, label, violations, out);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

}  // namespace dfil::core
